package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// appendRecord frames payload onto log.
func appendRecord(log *bytes.Buffer, payload []byte) error {
	rec, err := AppendWALRecordBuf(nil, payload)
	log.Write(rec)
	return err
}

func TestWALRoundTrip(t *testing.T) {
	batches := [][]byte{
		{0, 1, 2, 3},
		{},
		{1},
		bytes.Repeat([]byte{2}, 1000),
	}
	var log bytes.Buffer
	var want int64
	for _, b := range batches {
		if err := appendRecord(&log, b); err != nil {
			t.Fatal(err)
		}
		want += WALRecordSize(len(b))
	}
	if int64(log.Len()) != want {
		t.Fatalf("log is %d bytes, want %d", log.Len(), want)
	}
	var got [][]byte
	valid, err := ReplayWAL(bytes.NewReader(log.Bytes()), func(p []byte) error {
		got = append(got, append([]byte{}, p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if valid != want {
		t.Fatalf("valid prefix %d, want %d", valid, want)
	}
	if len(got) != len(batches) {
		t.Fatalf("%d records, want %d", len(got), len(batches))
	}
	for i := range batches {
		if !bytes.Equal(got[i], batches[i]) {
			t.Fatalf("record %d: %v, want %v", i, got[i], batches[i])
		}
	}
}

// TestWALTornTail: every possible truncation point of the final record
// replays the earlier records and reports exactly their length.
func TestWALTornTail(t *testing.T) {
	var log bytes.Buffer
	if err := appendRecord(&log, []byte{0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	prefix := int64(log.Len())
	if err := appendRecord(&log, []byte{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	full := log.Bytes()
	for cut := int(prefix); cut < len(full); cut++ {
		count := 0
		valid, err := ReplayWAL(bytes.NewReader(full[:cut]), func(p []byte) error {
			count++
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if valid != prefix || count != 1 {
			t.Fatalf("cut %d: valid=%d records=%d, want valid=%d records=1", cut, valid, count, prefix)
		}
	}
}

// TestWALCorruptTail: a bit flip anywhere in the last record stops the
// replay at the previous record, and a corrupt length field does not drive
// an allocation.
func TestWALCorruptTail(t *testing.T) {
	var log bytes.Buffer
	if err := appendRecord(&log, []byte{0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	prefix := int64(log.Len())
	if err := appendRecord(&log, []byte{1, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	for bit := int(prefix) * 8; bit < log.Len()*8; bit += 7 {
		img := append([]byte{}, log.Bytes()...)
		img[bit/8] ^= 1 << (bit % 8)
		count := 0
		valid, err := ReplayWAL(bytes.NewReader(img), func(p []byte) error {
			count++
			return nil
		})
		if err != nil {
			t.Fatalf("bit %d: %v", bit, err)
		}
		// A flip in the length field may shorten the record into a valid-
		// looking frame only if the checksum also matches — effectively
		// impossible; anything else must stop exactly at the prefix.
		if valid != prefix || count != 1 {
			t.Fatalf("bit %d: valid=%d records=%d, want valid=%d records=1", bit, valid, count, prefix)
		}
	}
}

func TestWALRecordTooLarge(t *testing.T) {
	var log bytes.Buffer
	if err := appendRecord(&log, make([]byte, MaxWALRecord+1)); !errors.Is(err, ErrWALRecordTooLarge) {
		t.Fatalf("err = %v, want ErrWALRecordTooLarge", err)
	}
}

// TestReplayWALFromOffsets: replaying from every record boundary visits
// exactly the records at or after it, each with its own start offset.
func TestReplayWALFromOffsets(t *testing.T) {
	batches := [][]byte{
		{0, 1, 2, 3},
		{},
		bytes.Repeat([]byte{1}, 100),
		{7},
	}
	var log bytes.Buffer
	var bounds []int64 // start offset of each record, plus the total length
	for _, b := range batches {
		bounds = append(bounds, int64(log.Len()))
		if err := appendRecord(&log, b); err != nil {
			t.Fatal(err)
		}
	}
	total := int64(log.Len())
	bounds = append(bounds, total)
	for i, from := range bounds {
		var offs []int64
		var got [][]byte
		valid, err := ReplayWALFrom(bytes.NewReader(log.Bytes()), from, func(off int64, p []byte) error {
			offs = append(offs, off)
			got = append(got, append([]byte{}, p...))
			return nil
		})
		if err != nil {
			t.Fatalf("from=%d: %v", from, err)
		}
		if valid != total {
			t.Fatalf("from=%d: valid=%d, want %d", from, valid, total)
		}
		if len(got) != len(batches)-i {
			t.Fatalf("from=%d: %d records visited, want %d", from, len(got), len(batches)-i)
		}
		for j := range got {
			if offs[j] != bounds[i+j] {
				t.Fatalf("from=%d: record %d at offset %d, want %d", from, j, offs[j], bounds[i+j])
			}
			if !bytes.Equal(got[j], batches[i+j]) {
				t.Fatalf("from=%d: record %d payload mismatch", from, j)
			}
		}
	}
}

// TestReplayWALFromMidRecord: every offset strictly inside a record's frame
// is rejected with ErrWALOffsetMidRecord — a replication cursor naming a
// non-boundary means cursor and log disagree.
func TestReplayWALFromMidRecord(t *testing.T) {
	var log bytes.Buffer
	if err := appendRecord(&log, []byte{0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	first := int64(log.Len())
	if err := appendRecord(&log, []byte{1, 1}); err != nil {
		t.Fatal(err)
	}
	total := int64(log.Len())
	for from := int64(1); from < total; from++ {
		if from == first {
			continue // a real boundary
		}
		_, err := ReplayWALFrom(bytes.NewReader(log.Bytes()), from, func(int64, []byte) error {
			t.Fatalf("from=%d: visit called for a mid-record offset", from)
			return nil
		})
		if !errors.Is(err, ErrWALOffsetMidRecord) {
			t.Fatalf("from=%d: err = %v, want ErrWALOffsetMidRecord", from, err)
		}
	}
}

// TestReplayWALFromEmptyAndPast: an empty log and a cursor at or past the
// valid end both replay cleanly with zero visits — the caller detects a
// divergent cursor by valid < from, not by an error.
func TestReplayWALFromEmptyAndPast(t *testing.T) {
	valid, err := ReplayWALFrom(bytes.NewReader(nil), 0, func(int64, []byte) error {
		t.Fatal("visited a record in an empty log")
		return nil
	})
	if err != nil || valid != 0 {
		t.Fatalf("empty log: valid=%d err=%v, want 0, nil", valid, err)
	}
	var log bytes.Buffer
	if err := appendRecord(&log, []byte{1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	total := int64(log.Len())
	valid, err = ReplayWALFrom(bytes.NewReader(log.Bytes()), total+100, func(int64, []byte) error {
		t.Fatal("visited a record past the requested cursor")
		return nil
	})
	if err != nil || valid != total {
		t.Fatalf("past-end cursor: valid=%d err=%v, want %d, nil", valid, err, total)
	}
}

// TestWALAlign: every cut of a multi-record log aligns down to the last
// whole frame.
func TestWALAlign(t *testing.T) {
	var log bytes.Buffer
	var bounds []int64
	for _, b := range [][]byte{{1}, {2, 2}, {}, {3, 3, 3}} {
		bounds = append(bounds, int64(log.Len()))
		if err := appendRecord(&log, b); err != nil {
			t.Fatal(err)
		}
	}
	bounds = append(bounds, int64(log.Len()))
	for cut := 0; cut <= log.Len(); cut++ {
		want := int64(0)
		for _, b := range bounds {
			if b <= int64(cut) {
				want = b
			}
		}
		if got := WALAlign(log.Bytes()[:cut]); got != want {
			t.Fatalf("cut %d: aligned to %d, want %d", cut, got, want)
		}
	}
}

// TestReplayWALFromTornTail: a cursor into the intact prefix of a torn log
// still visits the surviving records after it.
func TestReplayWALFromTornTail(t *testing.T) {
	var log bytes.Buffer
	if err := appendRecord(&log, []byte{0}); err != nil {
		t.Fatal(err)
	}
	first := int64(log.Len())
	if err := appendRecord(&log, []byte{1, 1}); err != nil {
		t.Fatal(err)
	}
	second := int64(log.Len())
	if err := appendRecord(&log, []byte{2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	torn := log.Bytes()[:log.Len()-3] // tear the last record's trailer
	count := 0
	valid, err := ReplayWALFrom(bytes.NewReader(torn), first, func(off int64, p []byte) error {
		count++
		if off != first || !bytes.Equal(p, []byte{1, 1}) {
			t.Fatalf("visited off=%d payload=%v, want off=%d payload=[1 1]", off, p, first)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if valid != second || count != 1 {
		t.Fatalf("valid=%d records=%d, want valid=%d records=1", valid, count, second)
	}
}

// TestReplayWALFromAllocatesAsBytesArrive: a record's length field is read
// before its checksum can vouch for it, so a forged header must not make
// replay allocate the length it claims. A header claiming MaxWALRecord,
// alone or followed by 200 kB, must cost under 1 MiB and end the replay as
// a torn tail: (0, nil).
func TestReplayWALFromAllocatesAsBytesArrive(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32(nil, MaxWALRecord)
	for _, received := range []int{0, 200_000} {
		log := append(bytes.Clone(hdr), make([]byte, received)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		valid, err := ReplayWALFrom(bytes.NewReader(log), 0, nil)
		runtime.ReadMemStats(&after)
		if valid != 0 || err != nil {
			t.Fatalf("%d payload bytes of %d: (%d, %v), want (0, nil)", received, MaxWALRecord, valid, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%d payload bytes of %d: allocated %d bytes, want under 1 MiB", received, MaxWALRecord, got)
		}
	}
}

// FuzzReplayWALFrom replays arbitrary bytes from an arbitrary cursor.
// Nothing may panic; the valid prefix is whole record frames of the input;
// the only error is ErrWALOffsetMidRecord; visited offsets strictly
// increase from the cursor on, and each visited payload re-frames to
// exactly the bytes at its offset; and ReplayWAL agrees on the valid
// prefix.
func FuzzReplayWALFrom(f *testing.F) {
	var log []byte
	var offs []int64
	for _, p := range [][]byte{{0}, {1, 1}, {}, bytes.Repeat([]byte{3}, 40)} {
		offs = append(offs, int64(len(log)))
		var err error
		if log, err = AppendWALRecordBuf(log, p); err != nil {
			f.Fatal(err)
		}
	}
	for _, from := range append(offs, 0, 3, int64(len(log)), int64(len(log))+12, -1) {
		f.Add(log, from)
	}
	f.Add(log[:len(log)-3], offs[1])
	flipped := bytes.Clone(log)
	flipped[offs[1]+5] ^= 1
	f.Add(flipped, int64(0))
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxWALRecord), int64(0))
	f.Add([]byte{}, int64(0))

	f.Fuzz(func(t *testing.T, data []byte, from int64) {
		var visited []int64
		valid, err := ReplayWALFrom(bytes.NewReader(data), from, func(off int64, payload []byte) error {
			if n := len(visited); off < from || n > 0 && off <= visited[n-1] {
				t.Fatalf("visited offset %d after %v from %d", off, visited, from)
			}
			visited = append(visited, off)
			rec, err := AppendWALRecordBuf(nil, payload)
			if err != nil {
				t.Fatal(err)
			}
			if end := off + WALRecordSize(len(payload)); end > int64(len(data)) || !bytes.Equal(rec, data[off:end]) {
				t.Fatalf("record at %d does not re-frame to its bytes", off)
			}
			return nil
		})
		if valid < 0 || valid > int64(len(data)) || WALAlign(data[:valid]) != valid {
			t.Fatalf("valid prefix %d of %d bytes is not whole frames", valid, len(data))
		}
		whole, werr := ReplayWAL(bytes.NewReader(data), nil)
		if werr != nil {
			t.Fatalf("ReplayWAL: %v", werr)
		}
		switch {
		case err == nil:
			if whole != valid {
				t.Fatalf("ReplayWALFrom(%d) valid %d, ReplayWAL valid %d", from, valid, whole)
			}
		case errors.Is(err, ErrWALOffsetMidRecord):
			// The cursor lands inside the whole record that starts at valid.
			if len(visited) > 0 || from <= valid || from >= whole {
				t.Fatalf("mid-record %v: valid %d, whole %d, visited %v", err, valid, whole, visited)
			}
		default:
			t.Fatalf("untyped error %v", err)
		}
	})
}
