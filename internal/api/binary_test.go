package api

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

func sampleRequest() ScheduleRequest {
	return ScheduleRequest{
		DAG:    json.RawMessage(`{"tasks":[{"work":100}],"edges":[]}`),
		BL:     "BL_CPAR",
		BD:     "BD_CPAR",
		Now:    1234,
		Q:      48,
		Commit: true,
	}
}

func sampleResponse() ScheduleResponse {
	return ScheduleResponse{
		Algorithm:  "BL_CPAR+BD_CPAR",
		Version:    987654321,
		Now:        -5,
		Tasks:      []Placement{{Task: 0, Procs: 4, Start: 10, End: 20}, {Task: 1, Procs: 1, Start: 20, End: 55}},
		Completion: 55,
		Turnaround: 55,
		CPUHours:   1.2345678901234567,
		Deadline:   100,
		Committed:  true,
		ReservationIDs: []string{
			"r-1", "r-2",
		},
		Retries: 3,
	}
}

func TestScheduleRequestBinaryRoundTrip(t *testing.T) {
	cases := []ScheduleRequest{
		sampleRequest(),
		{},                             // all zero: nil DAG survives
		{DAG: json.RawMessage{}},       // empty-but-present DAG survives
		{Now: -1, Q: -2, BL: "BL_MIN"}, // negative varints
	}
	for i, in := range cases {
		enc := in.AppendBinary(nil)
		var out ScheduleRequest
		if err := out.UnmarshalBinary(enc); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("case %d: round trip mismatch:\n in  %#v\n out %#v", i, in, out)
		}
	}
}

func TestScheduleResponseBinaryRoundTrip(t *testing.T) {
	cases := []ScheduleResponse{
		sampleResponse(),
		{},                     // zero value: nil slices survive
		{Tasks: []Placement{}}, // empty-but-present slice survives
		{ReservationIDs: []string{}},
		{CPUHours: -0.0, Now: -9e15},
	}
	for i, in := range cases {
		enc := in.AppendBinary(nil)
		var out ScheduleResponse
		if err := out.UnmarshalBinary(enc); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("case %d: round trip mismatch:\n in  %#v\n out %#v", i, in, out)
		}
	}
}

// TestBinaryAppendsToPrefix checks the dst idiom: encoding appends
// after existing bytes instead of clobbering them.
func TestBinaryAppendsToPrefix(t *testing.T) {
	prefix := []byte("keep")
	in := sampleRequest()
	enc := in.AppendBinary(prefix)
	if string(enc[:4]) != "keep" {
		t.Fatalf("prefix clobbered: %q", enc[:8])
	}
	var out ScheduleRequest
	if err := out.UnmarshalBinary(enc[4:]); err != nil {
		t.Fatalf("decode after prefix: %v", err)
	}
}

// TestBinaryEncodersAllocationFree pins both encoders at zero
// allocations into a buffer with room: the server encodes every binary
// response into a pooled buffer, so an allocation here is paid per
// request.
func TestBinaryEncodersAllocationFree(t *testing.T) {
	req, resp := sampleRequest(), sampleResponse()
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(50, func() { buf = req.AppendBinary(buf[:0]) }); n != 0 {
		t.Errorf("ScheduleRequest.AppendBinary allocates %.0f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { buf = resp.AppendBinary(buf[:0]) }); n != 0 {
		t.Errorf("ScheduleResponse.AppendBinary allocates %.0f times per call, want 0", n)
	}
}

func TestBinaryDecodeRejectsMalformed(t *testing.T) {
	resp := sampleResponse()
	good := resp.AppendBinary(nil)
	req := sampleRequest()
	reqGood := req.AppendBinary(nil)

	cases := map[string][]byte{
		"empty":          {},
		"short header":   good[:3],
		"bad magic":      append([]byte{'X', 'Y'}, good[2:]...),
		"bad version":    append([]byte{binMagic0, binMagic1, 99}, good[3:]...),
		"wrong kind":     reqGood, // request bytes into a response decoder
		"truncated body": good[:len(good)-3],
		"trailing bytes": append(append([]byte{}, good...), 0xff),
	}
	for name, data := range cases {
		var out ScheduleResponse
		err := out.UnmarshalBinary(data)
		if err == nil {
			t.Fatalf("%s: decode accepted malformed input", name)
		}
		if !errors.Is(err, ErrBinary) {
			t.Fatalf("%s: error %v does not wrap ErrBinary", name, err)
		}
	}
}

// TestBinaryDecodeBoundsAllocations: a length prefix claiming more
// elements than the remaining input can hold must fail fast instead of
// allocating gigabytes.
func TestBinaryDecodeBoundsAllocations(t *testing.T) {
	// Header + Algorithm "" + Version 0 + Now 0, then a tasks count
	// claiming ~2^40 placements with no bytes behind it.
	data := []byte{binMagic0, binMagic1, binVersion, kindScheduleResponse,
		0,                                  // algorithm: empty string
		0,                                  // version
		0,                                  // now
		0xff, 0xff, 0xff, 0xff, 0xff, 0x3f, // tasks count: huge uvarint
	}
	var out ScheduleResponse
	if err := out.UnmarshalBinary(data); !errors.Is(err, ErrBinary) {
		t.Fatalf("huge count: got %v, want ErrBinary", err)
	}
}

// TestBinaryBlobDoesNotAliasInput: decoded DAG bytes must be a copy,
// because the server decodes from a pooled buffer that is immediately
// reused.
func TestBinaryBlobDoesNotAliasInput(t *testing.T) {
	in := sampleRequest()
	enc := in.AppendBinary(nil)
	var out ScheduleRequest
	if err := out.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xAA
	}
	if string(out.DAG) != string(in.DAG) {
		t.Fatal("decoded DAG aliases the input buffer")
	}
}

// TestBinaryTruncatedAtEveryBoundary cuts a representative encoding of
// each message kind after every byte — which in particular lands on
// every field boundary and inside every length prefix — and requires a
// clean ErrBinary from each cut. Strict decoding means no strict
// prefix of a valid message may decode successfully: every field is
// mandatory and finish rejects leftover input, so a shortened message
// must fail at the first missing byte rather than panic or silently
// zero-fill.
func TestBinaryTruncatedAtEveryBoundary(t *testing.T) {
	req := sampleRequest()
	reqEnc := req.AppendBinary(nil)
	for i := 0; i < len(reqEnc); i++ {
		var out ScheduleRequest
		err := out.UnmarshalBinary(reqEnc[:i:i])
		if err == nil {
			t.Fatalf("request truncated to %d/%d bytes decoded successfully", i, len(reqEnc))
		}
		if !errors.Is(err, ErrBinary) {
			t.Fatalf("request truncated to %d bytes: err = %v, want ErrBinary", i, err)
		}
	}

	resp := sampleResponse()
	respEnc := resp.AppendBinary(nil)
	for i := 0; i < len(respEnc); i++ {
		var out ScheduleResponse
		err := out.UnmarshalBinary(respEnc[:i:i])
		if err == nil {
			t.Fatalf("response truncated to %d/%d bytes decoded successfully", i, len(respEnc))
		}
		if !errors.Is(err, ErrBinary) {
			t.Fatalf("response truncated to %d bytes: err = %v, want ErrBinary", i, err)
		}
	}
}

// TestBinaryOversizedLengthPrefix inflates each leading length prefix
// past the remaining input: the DAG blob length of a request and the
// string/slice prefixes of a response must be rejected by the reader's
// bounds check, not trusted into a huge take or allocation.
func TestBinaryOversizedLengthPrefix(t *testing.T) {
	// Request: header + a blob prefix claiming 1000 bytes with none
	// following.
	bad := []byte{binMagic0, binMagic1, binVersion, kindScheduleRequest, 0xe9, 0x07}
	var req ScheduleRequest
	if err := req.UnmarshalBinary(bad); !errors.Is(err, ErrBinary) {
		t.Fatalf("oversized request blob prefix: err = %v, want ErrBinary", err)
	}

	// Response: header + an Algorithm string prefix claiming 1000
	// bytes.
	bad = []byte{binMagic0, binMagic1, binVersion, kindScheduleResponse, 0xe9, 0x07}
	var resp ScheduleResponse
	if err := resp.UnmarshalBinary(bad); !errors.Is(err, ErrBinary) {
		t.Fatalf("oversized response string prefix: err = %v, want ErrBinary", err)
	}
}
