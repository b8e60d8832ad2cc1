package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"resched/internal/api"
	"resched/internal/server"
)

// postBinary sends a ScheduleRequest in the binary codec, asking for a
// binary response.
func postBinary(t *testing.T, url string, req api.ScheduleRequest) (*http.Response, []byte) {
	t.Helper()
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(req.AppendBinary(nil)))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", api.ContentTypeBinary)
	hr.Header.Set("Accept", api.ContentTypeBinary)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestBinaryCodecNegotiation: the binary request/response path must
// produce the same schedule as JSON, announce its Content-Type, and
// count both codecs in the metrics.
func TestBinaryCodecNegotiation(t *testing.T) {
	ts, _, _ := newTestServer(t, 32, server.Config{})
	dagJSON := testDAGJSON(t, 3)
	req := api.ScheduleRequest{DAG: dagJSON, Q: 16}

	_, jsonRaw := postJSON(t, ts.URL+"/v1/schedule", req)
	var viaJSON api.ScheduleResponse
	if err := json.Unmarshal(jsonRaw, &viaJSON); err != nil {
		t.Fatal(err)
	}

	resp, binRaw := postBinary(t, ts.URL+"/v1/schedule", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary request: HTTP %d: %s", resp.StatusCode, binRaw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != api.ContentTypeBinary {
		t.Errorf("response Content-Type %q, want %q", ct, api.ContentTypeBinary)
	}
	var viaBin api.ScheduleResponse
	if err := viaBin.UnmarshalBinary(binRaw); err != nil {
		t.Fatalf("decoding binary response: %v", err)
	}
	jb, _ := json.Marshal(viaJSON)
	bb, _ := json.Marshal(viaBin)
	if !bytes.Equal(jb, bb) {
		t.Errorf("binary and JSON responses diverge:\njson: %s\nbin:  %s", jb, bb)
	}

	// A JSON request with a binary Accept gets a binary response too.
	payload, _ := json.Marshal(req)
	hr, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule", bytes.NewReader(payload))
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("Accept", api.ContentTypeBinary)
	mixed, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, mixed.Body)
	mixed.Body.Close()
	if ct := mixed.Header.Get("Content-Type"); ct != api.ContentTypeBinary {
		t.Errorf("mixed request response Content-Type %q, want %q", ct, api.ContentTypeBinary)
	}

	// A malformed binary body 400s cleanly.
	hr, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule", bytes.NewReader([]byte{'R', 'B', 9}))
	hr.Header.Set("Content-Type", api.ContentTypeBinary)
	bad, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bad.Body)
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed binary body: HTTP %d, want 400", bad.StatusCode)
	}

	var m map[string]any
	getJSON(t, ts.URL+"/debug/metrics", &m)
	if n, _ := m["codec_json_requests"].(float64); n < 2 {
		t.Errorf("codec_json_requests %v, want >= 2", m["codec_json_requests"])
	}
	if n, _ := m["codec_binary_requests"].(float64); n < 1 {
		t.Errorf("codec_binary_requests %v, want >= 1", m["codec_binary_requests"])
	}
}
