package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"slices"
)

// The write-ahead log of a live corpus: the append-only companion of a
// sealed base snapshot. Each record carries one appended symbol batch;
// replaying base + records reconstructs the live corpus exactly, so an
// append is durable the moment its record is fsynced — without rewriting a
// byte of the (possibly mmap-served) base.
//
// Record layout (little-endian):
//
//	offset  size  field
//	0       4     payload length L (≤ MaxWALRecord)
//	4       L     payload — the appended symbol bytes
//	4+L     8     CRC-64/ECMA of the length field and payload
//
// Replay treats the log as untrusted and torn-tolerant: records are
// consumed while their length and checksum verify, and the first short,
// oversized, or corrupt record ends the replay — ReplayWAL reports the byte
// offset of the valid prefix so the opener can truncate the torn tail (a
// crash mid-write) before appending new records after it.

// MaxWALRecord caps one record's payload (64 MiB) — a corrupt length field
// must not drive a giant allocation.
const MaxWALRecord = 64 << 20

// walHeaderSize and walTrailerSize frame each record.
const (
	walHeaderSize  = 4
	walTrailerSize = 8
)

// ErrWALRecordTooLarge reports an append exceeding MaxWALRecord.
var ErrWALRecordTooLarge = errors.New("snapshot: WAL record exceeds the size cap")

// ErrWALOffsetMidRecord reports a replay offset that is not a record
// boundary: the requested byte position lands inside a record's frame. A
// replication cursor must only ever name boundaries (it advances by whole
// records), so a mid-record offset means the cursor and the log disagree —
// the caller should re-seed rather than serve garbage from the middle of a
// frame.
var ErrWALOffsetMidRecord = errors.New("snapshot: WAL offset is not a record boundary")

// AppendWALRecordBuf frames payload as one record and appends it to dst,
// returning the extended buffer. This is the group-commit building block: a
// committer accumulates many framed records in memory and lands them with
// one write + one fsync, instead of a write syscall per record. Callers own
// durability (fsync) and serialization.
func AppendWALRecordBuf(dst []byte, payload []byte) ([]byte, error) {
	if len(payload) > MaxWALRecord {
		return dst, fmt.Errorf("%w: %d bytes", ErrWALRecordTooLarge, len(payload))
	}
	start := len(dst)
	dst = append(dst, make([]byte, walHeaderSize+len(payload)+walTrailerSize)...)
	rec := dst[start:]
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	copy(rec[walHeaderSize:], payload)
	crc := crc64.Checksum(rec[:walHeaderSize+len(payload)], crcTable)
	binary.LittleEndian.PutUint64(rec[walHeaderSize+len(payload):], crc)
	return dst, nil
}

// WALRecordSize returns the on-disk size of a record carrying n payload
// bytes — what one append adds to the log.
func WALRecordSize(n int) int64 { return int64(walHeaderSize + n + walTrailerSize) }

// ReplayWAL streams every valid record of the log to visit, in order, and
// returns the byte length of the valid prefix. A torn or corrupt tail is
// not an error — it is the expected shape of a crash mid-append — so err is
// non-nil only for I/O failures and for a visit callback rejecting a
// record (which stops the replay with the offset of the records consumed so
// far). The payload slice passed to visit is reused between records.
func ReplayWAL(r io.Reader, visit func(payload []byte) error) (valid int64, err error) {
	if visit == nil {
		return ReplayWALFrom(r, 0, nil)
	}
	return ReplayWALFrom(r, 0, func(_ int64, payload []byte) error { return visit(payload) })
}

// ReplayWALFrom is ReplayWAL with a resumption cursor: records whose frames
// end at or before `from` are decoded (their checksums still gate the valid
// prefix) but not visited; every later record is passed to visit together
// with the byte offset its frame starts at. This is the replication
// primitive — a follower's durable cursor is a byte offset into the
// primary's log, and the shipping path needs exactly "every record from
// this boundary on, with its offset".
//
// `from` must be a record boundary: 0, the log's valid length, or the start
// of some record. An offset inside a record's frame fails with
// ErrWALOffsetMidRecord (wrapped with the offending offsets) the moment the
// straddling record is decoded; an offset past the valid prefix is NOT an
// error — the replay simply ends with valid < from, which the caller can
// (and a replication server does) treat as a divergent cursor. A nil visit
// replays for validation only.
func ReplayWALFrom(r io.Reader, from int64, visit func(off int64, payload []byte) error) (valid int64, err error) {
	var hdr [walHeaderSize]byte
	var trailer [walTrailerSize]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return valid, ioError(err)
		}
		l := binary.LittleEndian.Uint32(hdr[:])
		if l > MaxWALRecord {
			return valid, nil // corrupt length: treat as torn tail
		}
		if payload, err = ReadPayload(r, payload, int(l)); err != nil {
			return valid, ioError(err)
		}
		if _, err := io.ReadFull(r, trailer[:]); err != nil {
			return valid, ioError(err)
		}
		crc := crc64.Update(crc64.Checksum(hdr[:], crcTable), crcTable, payload)
		if crc != binary.LittleEndian.Uint64(trailer[:]) {
			return valid, nil // bit rot or torn rewrite: stop at the last good record
		}
		start := valid
		end := valid + WALRecordSize(int(l))
		if from > start && from < end {
			return valid, fmt.Errorf("%w: offset %d lands inside the record spanning [%d, %d)",
				ErrWALOffsetMidRecord, from, start, end)
		}
		if start >= from && visit != nil {
			if err := visit(start, payload); err != nil {
				return valid, err
			}
		}
		valid = end
	}
}

// ioError is err unless err only says the bytes ran out — a torn tail,
// which ends the valid prefix without being an error.
func ioError(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return err
}

// payloadChunk is the most ReadPayload allocates before any payload byte
// has arrived.
const payloadChunk = 64 << 10

// ReadPayload reads an l-byte payload from r into buf's storage, growing it
// only as bytes arrive, and returns it. The length comes off a header that
// its checksum, which trails the payload, cannot vouch for yet, so a buffer
// too small for l starts at payloadChunk and at most doubles each time it
// fills: it never holds more than one chunk or twice the bytes that have
// arrived, whatever length the header claims. A stream that ends early is
// io.ErrUnexpectedEOF. WAL replay passes the previous record's buffer back
// in; the replication frame reader passes nil.
func ReadPayload(r io.Reader, buf []byte, l int) ([]byte, error) {
	payload := buf[:0]
	if first := min(l, payloadChunk); cap(payload) < first {
		payload = make([]byte, 0, first)
	}
	for len(payload) < l {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, min(len(payload), l-len(payload)))
		}
		n, err := io.ReadFull(r, payload[len(payload):min(cap(payload), l)])
		payload = payload[:len(payload)+n]
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return payload, nil
}

// WALAlign returns the length of the longest prefix of data made of whole
// record frames, walking length headers only (no checksum verification —
// the caller is slicing its own already-verified log, not validating an
// untrusted one). Replication uses it to trim a size-capped byte range to a
// record boundary so every shipped frame replays standalone.
func WALAlign(data []byte) int64 {
	var n int64
	for {
		rest := data[n:]
		if len(rest) < walHeaderSize {
			return n
		}
		l := binary.LittleEndian.Uint32(rest)
		if l > MaxWALRecord {
			return n
		}
		size := WALRecordSize(int(l))
		if int64(len(rest)) < size {
			return n
		}
		n += size
	}
}
