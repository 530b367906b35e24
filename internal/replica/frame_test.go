package replica

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"io"
	"runtime"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameData, Gen: 3, Offset: 1024, Payload: []byte("raw wal bytes")},
		{Type: FrameHeartbeat, Gen: 3, Offset: 2048, Payload: []byte{}},
		{Type: FrameReseed, Gen: 4, Payload: []byte{}},
		{Type: FrameData, Gen: 0, Offset: 0, Payload: []byte{}},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i, want := range frames {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Gen != want.Gen || got.Offset != want.Offset || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestFrameCorruption(t *testing.T) {
	good, err := AppendFrame(nil, Frame{Type: FrameData, Gen: 1, Offset: 7, Payload: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	// Every single-byte flip is caught: type check or checksum.
	for i := range good {
		bad := bytes.Clone(good)
		bad[i] ^= 0x01
		if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrFrameCorrupt) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("flip at byte %d: %v, want corruption or truncation", i, err)
		}
	}
	// Every truncation is a mid-frame death, never a silent clean end.
	for n := 1; n < len(good); n++ {
		if _, err := ReadFrame(bytes.NewReader(good[:n])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d bytes: %v, want io.ErrUnexpectedEOF", n, err)
		}
	}
}

// TestReadFrameAllocatesAsBytesArrive: a frame's length field is read
// before its checksum can vouch for it, so a forged header must not make
// ReadFrame allocate the length it claims. A header claiming
// MaxFramePayload, followed by nothing or by 200 kB, must cost under 1 MiB
// and end in io.ErrUnexpectedEOF.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	hdr := make([]byte, frameHeaderSize)
	hdr[0] = FrameData
	binary.LittleEndian.PutUint32(hdr[17:], MaxFramePayload)
	for _, received := range []int{0, 200_000} {
		stream := append(bytes.Clone(hdr), make([]byte, received)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFrame(bytes.NewReader(stream))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d payload bytes of %d: %v, want io.ErrUnexpectedEOF", received, MaxFramePayload, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%d payload bytes of %d: allocated %d bytes, want under 1 MiB", received, MaxFramePayload, got)
		}
	}
}

// FuzzReadFrame decodes arbitrary bytes as a frame stream. Nothing may
// panic; every error is io.EOF (only with the stream at a frame boundary),
// io.ErrUnexpectedEOF or ErrFrameCorrupt; and every accepted frame
// re-encodes through AppendFrame to exactly the bytes it consumed. With
// seal set, the first frame's trailer is rewritten to the checksum of the
// bytes before it, so mutated headers and payloads get past the checksum.
func FuzzReadFrame(f *testing.F) {
	var stream []byte
	for _, fr := range []Frame{
		{Type: FrameData, Gen: 3, Offset: 1024, Payload: []byte("raw wal bytes")},
		{Type: FrameHeartbeat, Gen: 3, Offset: 2048, Payload: []byte{}},
		{Type: FrameReseed, Gen: 4, Payload: []byte{}},
	} {
		one, err := AppendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(one, false)
		f.Add(one[:len(one)-3], false)
		stream = append(stream, one...)
	}
	f.Add(stream, false)
	forged := make([]byte, frameHeaderSize+frameTrailerSize)
	forged[0] = FrameData
	binary.LittleEndian.PutUint32(forged[17:], MaxFramePayload)
	f.Add(forged, false)
	forged[8] = 0x80 // gen's top bit: a negative position
	binary.LittleEndian.PutUint32(forged[17:], 0)
	f.Add(forged, true)
	f.Add([]byte{'X'}, false)
	f.Add([]byte{}, false)

	f.Fuzz(func(t *testing.T, data []byte, seal bool) {
		if seal && len(data) >= frameHeaderSize {
			if end := frameHeaderSize + int(binary.LittleEndian.Uint32(data[17:])); end+frameTrailerSize <= len(data) {
				data = bytes.Clone(data)
				binary.LittleEndian.PutUint64(data[end:], crc64.Checksum(data[:end], frameCRC))
			}
		}
		r := bytes.NewReader(data)
		for {
			start := len(data) - r.Len()
			fr, err := ReadFrame(r)
			if err != nil {
				switch {
				case errors.Is(err, io.EOF):
					if start != len(data) {
						t.Fatalf("io.EOF with %d bytes left", len(data)-start)
					}
				case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, ErrFrameCorrupt):
				default:
					t.Fatalf("frame at %d: untyped error %v", start, err)
				}
				return
			}
			consumed := data[start : len(data)-r.Len()]
			again, err := AppendFrame(nil, fr)
			if err != nil {
				t.Fatalf("frame at %d: accepted %+v does not re-encode: %v", start, fr, err)
			}
			if !bytes.Equal(again, consumed) {
				t.Fatalf("frame at %d: re-encodes to %x, consumed %x", start, again, consumed)
			}
		}
	})
}
