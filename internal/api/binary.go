// Binary wire codec for the serving hot path. JSON stays the default
// and the source of truth for field semantics; this codec is a strict,
// compact alternative negotiated per request via Content-Type /
// Accept: application/x-resched-bin (see DESIGN.md §14 for the byte
// layout). Only the two hot-path messages are covered: encoding the
// DAG as a length-prefixed raw JSON blob keeps the request parser
// unchanged while eliminating the outer JSON walk, and the response
// side avoids reflection entirely.
//
// Layout conventions: a four-byte header (magic "RB", format version,
// message kind), unsigned fields as uvarint, signed fields as zigzag
// varint, float64 as 8 little-endian IEEE-754 bytes, byte blobs and
// strings length-prefixed. Optional slices/blobs carry length+1 so a
// nil slice (0) and an empty one (1) survive a round trip distinctly —
// the JSON oracle in FuzzBinaryCodecRoundTrip depends on that.
// Decoding is strict: unknown kinds, truncated fields, oversized
// length prefixes, and trailing bytes are all errors.
package api

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ContentTypeBinary is the negotiated media type of the binary codec.
const ContentTypeBinary = "application/x-resched-bin"

// ErrBinary is the base error for every malformed binary message;
// callers match it with errors.Is and map it to a 400.
var ErrBinary = errors.New("malformed binary message")

const (
	binMagic0  = 'R'
	binMagic1  = 'B'
	binVersion = 1

	kindScheduleRequest  = 1
	kindScheduleResponse = 2
)

// AppendBinary appends the binary encoding of r to dst and returns the
// extended slice. The dst idiom (instead of MarshalBinary) lets the
// server encode into pooled buffers without a per-response allocation.
func (r *ScheduleRequest) AppendBinary(dst []byte) []byte {
	dst = append(dst, binMagic0, binMagic1, binVersion, kindScheduleRequest)
	dst = appendBlob(dst, r.DAG)
	dst = appendString(dst, r.BL)
	dst = appendString(dst, r.BD)
	dst = binary.AppendVarint(dst, r.Now)
	dst = binary.AppendVarint(dst, int64(r.Q))
	dst = appendBool(dst, r.Commit)
	return dst
}

// UnmarshalBinary decodes a binary ScheduleRequest produced by
// AppendBinary. On error r is left unspecified.
func (r *ScheduleRequest) UnmarshalBinary(data []byte) error {
	d, err := newBinReader(data, kindScheduleRequest)
	if err != nil {
		return err
	}
	r.DAG = d.blob()
	r.BL = d.str()
	r.BD = d.str()
	r.Now = d.varint()
	r.Q = int(d.varint())
	r.Commit = d.bool()
	return d.finish()
}

// AppendBinary appends the binary encoding of r to dst and returns the
// extended slice.
func (r *ScheduleResponse) AppendBinary(dst []byte) []byte {
	dst = append(dst, binMagic0, binMagic1, binVersion, kindScheduleResponse)
	dst = appendString(dst, r.Algorithm)
	dst = binary.AppendUvarint(dst, r.Version)
	dst = binary.AppendVarint(dst, r.Now)
	if r.Tasks == nil {
		dst = binary.AppendUvarint(dst, 0)
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(r.Tasks))+1)
		for i := range r.Tasks {
			p := &r.Tasks[i]
			dst = binary.AppendVarint(dst, int64(p.Task))
			dst = binary.AppendVarint(dst, int64(p.Procs))
			dst = binary.AppendVarint(dst, p.Start)
			dst = binary.AppendVarint(dst, p.End)
		}
	}
	dst = binary.AppendVarint(dst, r.Completion)
	dst = binary.AppendVarint(dst, r.Turnaround)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.CPUHours))
	dst = binary.AppendVarint(dst, r.Deadline)
	dst = appendBool(dst, r.Committed)
	if r.ReservationIDs == nil {
		dst = binary.AppendUvarint(dst, 0)
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(r.ReservationIDs))+1)
		for _, id := range r.ReservationIDs {
			dst = appendString(dst, id)
		}
	}
	dst = binary.AppendVarint(dst, int64(r.Retries))
	return dst
}

// UnmarshalBinary decodes a binary ScheduleResponse produced by
// AppendBinary. On error r is left unspecified.
func (r *ScheduleResponse) UnmarshalBinary(data []byte) error {
	d, err := newBinReader(data, kindScheduleResponse)
	if err != nil {
		return err
	}
	r.Algorithm = d.str()
	r.Version = d.uvarint()
	r.Now = d.varint()
	if n, ok := d.count(4); !ok {
		r.Tasks = nil
	} else {
		r.Tasks = make([]Placement, n)
		for i := range r.Tasks {
			p := &r.Tasks[i]
			p.Task = int(d.varint())
			p.Procs = int(d.varint())
			p.Start = d.varint()
			p.End = d.varint()
		}
	}
	r.Completion = d.varint()
	r.Turnaround = d.varint()
	r.CPUHours = d.f64()
	r.Deadline = d.varint()
	r.Committed = d.bool()
	if n, ok := d.count(1); !ok {
		r.ReservationIDs = nil
	} else {
		r.ReservationIDs = make([]string, n)
		for i := range r.ReservationIDs {
			r.ReservationIDs[i] = d.str()
		}
	}
	r.Retries = int(d.varint())
	return d.finish()
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendBlob writes an optional byte blob: 0 for nil, length+1
// otherwise.
func appendBlob(dst []byte, b []byte) []byte {
	if b == nil {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b))+1)
	return append(dst, b...)
}

// binReader cursors through one message with sticky error handling:
// after the first malformed field every accessor returns zero values
// and finish reports the error, so decoders read fields linearly
// without per-field checks.
type binReader struct {
	b   []byte
	err error
}

func newBinReader(data []byte, kind byte) (*binReader, error) {
	if len(data) < 4 || data[0] != binMagic0 || data[1] != binMagic1 {
		return nil, fmt.Errorf("%w: bad magic", ErrBinary)
	}
	if data[2] != binVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBinary, data[2])
	}
	if data[3] != kind {
		return nil, fmt.Errorf("%w: message kind %d, want %d", ErrBinary, data[3], kind)
	}
	return &binReader{b: data[4:]}, nil
}

func (d *binReader) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrBinary, what)
	}
}

func (d *binReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *binReader) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count decodes an optional-slice length (0 = nil, else n+1) and
// bounds it by the remaining input, assuming each element occupies at
// least minElem bytes — a hostile length prefix cannot force a giant
// allocation.
func (d *binReader) count(minElem int) (int, bool) {
	v := d.uvarint()
	if d.err != nil || v == 0 {
		return 0, false
	}
	n := v - 1
	if n > uint64(len(d.b)/minElem) {
		d.fail("slice length exceeds input")
		return 0, false
	}
	return int(n), true
}

func (d *binReader) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("length prefix exceeds input")
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

func (d *binReader) str() string {
	return string(d.take(d.uvarint()))
}

// blob reads an optional byte blob written by appendBlob. The result
// is a copy, never an alias of the input buffer: callers hand decoded
// requests across goroutines while the pooled read buffer is reused.
func (d *binReader) blob() []byte {
	v := d.uvarint()
	if d.err != nil || v == 0 {
		return nil
	}
	b := d.take(v - 1)
	if d.err != nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func (d *binReader) f64() float64 {
	b := d.take(8)
	if d.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (d *binReader) bool() bool {
	b := d.take(1)
	if d.err != nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool byte")
		return false
	}
}

// finish reports the sticky decode error, or complains about trailing
// bytes: a valid message consumes its input exactly.
func (d *binReader) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBinary, len(d.b))
	}
	return nil
}
