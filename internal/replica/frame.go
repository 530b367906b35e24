// Package replica ships live-corpus WALs between mssd nodes: a primary
// serves its committed log as (generation, offset, records) frames over
// long-lived HTTP streams, and a follower applies them through the
// service layer's replication tap, serving read-only scans of everything
// applied. The follower's log is a bit-identical prefix of the primary's,
// so its durable cursor is just its own manifest generation plus its
// replayed WAL length — restart recovery is the ordinary OpenLive path.
//
// The package mirrors internal/vfs's fault philosophy on the wire: a
// NetFaulty Source injects dropped, duplicated, delayed, and severed
// frames plus whole partitions, and the harness tests walk every frame
// boundary asserting the follower always serves a prefix of the primary's
// acknowledged history and converges once the fault lifts.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"

	"repro/internal/snapshot"
)

// Frame types. Data carries raw WAL record bytes [Offset, Offset+len) of
// generation Gen. Heartbeat advertises the primary's committed position
// (Gen, Offset) without payload — lag measurement and stream liveness.
// Reseed tells the follower its cursor's generation is gone (the primary
// compacted to Gen): fetch the sealed base snapshot and restart the tail.
const (
	FrameData      byte = 'D'
	FrameHeartbeat byte = 'H'
	FrameReseed    byte = 'R'
)

// Frame is one unit of the replication stream.
//
// Wire layout (little-endian):
//
//	offset  size  field
//	0       1     type
//	1       8     generation
//	9       8     offset
//	17      4     payload length L
//	21      L     payload (raw WAL record bytes; empty for H/R)
//	21+L    8     CRC-64/ECMA of everything before
type Frame struct {
	Type    byte
	Gen     int
	Offset  int64
	Payload []byte
}

// frameHeaderSize and frameTrailerSize bracket the payload.
const (
	frameHeaderSize  = 1 + 8 + 8 + 4
	frameTrailerSize = 8
)

// MaxFramePayload caps one frame's payload: a chunk is normally far
// smaller, but a single WAL record can reach snapshot.MaxWALRecord and
// must ship whole.
const MaxFramePayload = snapshot.MaxWALRecord + 64

// ErrFrameCorrupt reports a frame whose checksum or header failed — the
// stream is unusable past it and the client reconnects from its cursor.
var ErrFrameCorrupt = errors.New("replica: corrupt frame")

var frameCRC = crc64.MakeTable(crc64.ECMA)

// AppendFrame serializes f onto dst and returns the extended buffer.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if len(f.Payload) > MaxFramePayload {
		return dst, fmt.Errorf("replica: frame payload of %d bytes exceeds the %d cap", len(f.Payload), MaxFramePayload)
	}
	if f.Gen < 0 || f.Offset < 0 {
		return dst, fmt.Errorf("replica: negative frame position gen=%d offset=%d", f.Gen, f.Offset)
	}
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize+len(f.Payload)+frameTrailerSize)...)
	b := dst[start:]
	b[0] = f.Type
	binary.LittleEndian.PutUint64(b[1:], uint64(f.Gen))
	binary.LittleEndian.PutUint64(b[9:], uint64(f.Offset))
	binary.LittleEndian.PutUint32(b[17:], uint32(len(f.Payload)))
	copy(b[frameHeaderSize:], f.Payload)
	crc := crc64.Checksum(b[:frameHeaderSize+len(f.Payload)], frameCRC)
	binary.LittleEndian.PutUint64(b[frameHeaderSize+len(f.Payload):], crc)
	return dst, nil
}

// WriteFrame serializes f to w.
func WriteFrame(w io.Writer, f Frame) error {
	buf, err := AppendFrame(nil, f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame decodes the next frame from r. io.EOF at a frame boundary is
// returned verbatim (clean end of a catch-up stream); a stream dying
// mid-frame surfaces as io.ErrUnexpectedEOF, and a checksum or header
// mismatch as ErrFrameCorrupt.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return Frame{}, err // io.EOF here is a clean boundary
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	switch hdr[0] {
	case FrameData, FrameHeartbeat, FrameReseed:
	default:
		return Frame{}, fmt.Errorf("%w: unknown type %q", ErrFrameCorrupt, hdr[0])
	}
	gen, off := int(binary.LittleEndian.Uint64(hdr[1:])), int64(binary.LittleEndian.Uint64(hdr[9:]))
	if gen < 0 || off < 0 {
		return Frame{}, fmt.Errorf("%w: negative position gen=%d offset=%d", ErrFrameCorrupt, gen, off)
	}
	l := binary.LittleEndian.Uint32(hdr[17:])
	if l > MaxFramePayload {
		return Frame{}, fmt.Errorf("%w: payload length %d exceeds the %d cap", ErrFrameCorrupt, l, MaxFramePayload)
	}
	payload, err := snapshot.ReadPayload(r, nil, int(l))
	if err != nil {
		return Frame{}, err
	}
	var trailer [frameTrailerSize]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	crc := crc64.Update(crc64.Checksum(hdr[:], frameCRC), frameCRC, payload)
	if crc != binary.LittleEndian.Uint64(trailer[:]) {
		return Frame{}, fmt.Errorf("%w: checksum mismatch", ErrFrameCorrupt)
	}
	return Frame{Type: hdr[0], Gen: gen, Offset: off, Payload: payload}, nil
}
