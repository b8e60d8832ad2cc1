package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"resched/internal/api"
	"resched/internal/daggen"
	"resched/internal/dagio"
	"resched/internal/model"
	"resched/internal/resbook"
)

// benchBook builds a reservation book carrying n competing
// reservations, the serving-time analogue of profile_bench_test's
// loadedProfile.
func benchBook(b *testing.B, n int) *resbook.Book {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	book := resbook.New(256, 0)
	for k := 0; k < n; k++ {
		start := model.Time(rng.Int63n(int64(14 * model.Day)))
		dur := model.Duration(rng.Int63n(int64(6*model.Hour)) + 60)
		procs := rng.Intn(128) + 1
		// Capacity conflicts are expected; they just leave this draw
		// unbooked.
		_, _ = book.Reserve(start, start+dur, procs)
	}
	return book
}

// BenchmarkSchedulePost measures the full POST /v1/schedule serving
// path — JSON decode, DAG parse, snapshot, scheduling, response encode
// — for a dry-run request. allocs/op here is the PR 2 acceptance
// metric for the serving layer (see BENCH_PR2.json).
func BenchmarkSchedulePost(b *testing.B) {
	book := benchBook(b, 200)
	srv, err := New(Config{Book: book})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()

	spec := daggen.Default()
	g := daggen.MustGenerate(spec, rand.New(rand.NewSource(7)))
	var dagBuf bytes.Buffer
	if err := dagio.Write(&dagBuf, g); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(api.ScheduleRequest{DAG: dagBuf.Bytes(), Q: 128})
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rw.Code, rw.Body.String())
		}
	}
}

// throughputBook builds the steady-state book the throughput
// benchmark serves against: a long horizon dense with standing
// reservations, so the per-request snapshot cost is the realistic
// O(segments) of a busy cluster.
func throughputBook(b *testing.B) *resbook.Book {
	b.Helper()
	rng := rand.New(rand.NewSource(23))
	book := resbook.New(256, 0)
	for k := 0; k < 120000; k++ {
		start := model.Time(rng.Int63n(int64(480 * model.Day)))
		dur := model.Duration(rng.Int63n(int64(6*model.Hour)) + 60)
		procs := rng.Intn(64) + 1
		_, _ = book.Reserve(start, start+dur, procs)
	}
	return book
}

// BenchmarkScheduleThroughput measures end-to-end schedules per
// second per core under concurrent committing clients against a
// loaded book, every request its own snapshot and commit, once per
// wire codec. Each client releases what it booked so the book holds
// its steady-state size instead of growing with b.N.
func BenchmarkScheduleThroughput(b *testing.B) {
	spec := daggen.Default()
	spec.N = 6
	g := daggen.MustGenerate(spec, rand.New(rand.NewSource(11)))
	var dagBuf bytes.Buffer
	if err := dagio.Write(&dagBuf, g); err != nil {
		b.Fatal(err)
	}
	apiReq := api.ScheduleRequest{DAG: dagBuf.Bytes(), Q: 32, Commit: true}
	jsonBody, err := json.Marshal(apiReq)
	if err != nil {
		b.Fatal(err)
	}
	binBody := apiReq.AppendBinary(nil)

	const clients = 8
	modes := []struct {
		name string
		bin  bool
	}{
		{"direct-json", false},
		{"direct-bin", true},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			book := throughputBook(b)
			srv, err := New(Config{Book: book, Workers: clients, MaxRetries: 256})
			if err != nil {
				b.Fatal(err)
			}
			h := srv.Handler()
			body, ct := jsonBody, "application/json"
			if m.bin {
				body, ct = binBody, api.ContentTypeBinary
			}

			b.ReportAllocs()
			b.SetParallelism(clients) // concurrent clients even at GOMAXPROCS=1
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
					req.Header.Set("Content-Type", ct)
					if m.bin {
						req.Header.Set("Accept", api.ContentTypeBinary)
					}
					rw := httptest.NewRecorder()
					h.ServeHTTP(rw, req)
					if rw.Code != http.StatusOK {
						b.Errorf("status %d: %s", rw.Code, rw.Body.String())
						return
					}
					var resp api.ScheduleResponse
					var derr error
					if m.bin {
						derr = resp.UnmarshalBinary(rw.Body.Bytes())
					} else {
						derr = json.Unmarshal(rw.Body.Bytes(), &resp)
					}
					if derr != nil {
						b.Errorf("decoding response: %v", derr)
						return
					}
					for _, id := range resp.ReservationIDs {
						if err := book.Release(id); err != nil {
							b.Errorf("releasing %s: %v", id, err)
							return
						}
					}
				}
			})
			b.StopTimer()
			cores := float64(runtime.GOMAXPROCS(0))
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/cores, "sched/s/core")
			b.ReportMetric(float64(srv.metrics.retries.Load())/float64(b.N), "retries/op")
		})
	}
}
