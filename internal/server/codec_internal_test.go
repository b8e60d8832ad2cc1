package server

import (
	"bytes"
	"net/http"
	"testing"

	"resched/internal/api"
	"resched/internal/resbook"
)

// borrowingWriter is a ResponseWriter whose Write first does what a
// concurrent request may do at that moment: borrow a buffer from the
// binary pool, scribble over it, and hand it back. Only then does it
// record the bytes it was asked to write.
type borrowingWriter struct {
	s      *Server
	header http.Header
	got    []byte
}

func (w *borrowingWriter) Header() http.Header { return w.header }
func (w *borrowingWriter) WriteHeader(int)     {}
func (w *borrowingWriter) Write(p []byte) (int, error) {
	bp := w.s.binPool.Get().(*[]byte)
	buf := (*bp)[:cap(*bp)]
	for i := range buf {
		buf[i] = 0xff
	}
	w.s.binPool.Put(bp)
	w.got = append(w.got, p...)
	return len(p), nil
}

// TestBinaryResponseHoldsBufferThroughWrite pins the binary encoder's
// borrow: the pooled buffer the response is encoded into stays out of
// the pool until the bytes are on the wire. A buffer handed back before
// Write can be taken and overwritten by another request mid-write.
func TestBinaryResponseHoldsBufferThroughWrite(t *testing.T) {
	s, err := New(Config{Book: resbook.New(8, 0)})
	if err != nil {
		t.Fatal(err)
	}
	resp := &api.ScheduleResponse{
		Algorithm: "BL_CPAR_BD_CPAR",
		Version:   3,
		Tasks:     []api.Placement{{Task: 0, Procs: 2, Start: 10, End: 20}},
	}
	want := resp.AppendBinary(nil)
	// The race detector's sync.Pool drops a quarter of its Puts at
	// random, so one round could miss the reuse; twenty cannot.
	for round := 0; round < 20; round++ {
		w := &borrowingWriter{s: s, header: http.Header{}}
		s.writeScheduleResponse(w, true, http.StatusOK, resp)
		if !bytes.Equal(w.got, want) {
			t.Fatalf("round %d: wrote % x, want % x: the buffer went back to the pool before Write", round, w.got, want)
		}
	}
}
