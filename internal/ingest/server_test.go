package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/cold-diffusion/cold/internal/envelope"
	"github.com/cold-diffusion/cold/internal/obs"
)

// errorBody is the error envelope the tests decode non-2xx bodies into.
type errorBody = envelope.Body

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, into any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decode %s response: %v", resp.Status, err)
	}
}

func TestServerIngestEndpoint(t *testing.T) {
	base := testBase(t)
	reg := obs.NewRegistry()
	ing := newTestIngester(t, Config{
		WALDir: t.TempDir(), Base: base, Sweeps: 2, Metrics: NewMetrics(reg),
	})
	ts := httptest.NewServer(NewServer(ing, t.Logf).Handler())
	defer ts.Close()
	defer ing.Drain(context.Background())

	// A valid record is acknowledged with its durable sequence number.
	resp := postJSON(t, ts.URL+"/v1/ingest", streamRecord(base, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid record: %s", resp.Status)
	}
	var ack ingestResponse
	decodeBody(t, resp, &ack)
	if ack.Seq != 1 || !ack.Durable {
		t.Fatalf("ack = %+v, want seq 1 durable", ack)
	}

	// Validation failures are 400s in the shared envelope.
	bad := streamRecord(base, 1)
	bad.Words.IDs[0] = base.V + 7
	resp = postJSON(t, ts.URL+"/v1/ingest", bad)
	var envelope errorBody
	decodeBody(t, resp, &envelope)
	if resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != "bad_request" {
		t.Fatalf("invalid record: %s, code %q", resp.Status, envelope.Error.Code)
	}
	if !strings.Contains(envelope.Error.Message, "out of range") {
		t.Fatalf("error message %q lacks the validation detail", envelope.Error.Message)
	}

	// Malformed JSON and unknown fields are 400s too.
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(`{"user":`))
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &envelope)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated JSON: %s", resp.Status)
	}

	// Unknown endpoints answer the envelope, not the mux's plain text.
	resp, err = http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &envelope)
	if resp.StatusCode != http.StatusNotFound || envelope.Error.Code != "not_found" {
		t.Fatalf("unknown path: %s, code %q", resp.Status, envelope.Error.Code)
	}

	// Status reflects the acked record.
	resp, err = http.Get(ts.URL + "/v1/ingest/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	decodeBody(t, resp, &st)
	if st.LastSeq != 1 || st.QueueDepth != 1 {
		t.Fatalf("status = %+v, want LastSeq 1, QueueDepth 1", st)
	}

	// Health and metrics are up; the exposition carries the namespace.
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp.Status)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var expo bytes.Buffer
	expo.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(expo.String(), "cold_ingest_appended_total 1") {
		t.Fatalf("metrics exposition lacks the appended counter:\n%s", expo.String())
	}
}

func TestServerShedsWithRetryAfter(t *testing.T) {
	base := testBase(t)
	ing := newTestIngester(t, Config{
		WALDir: t.TempDir(), Base: base, Sweeps: 2,
		QueueCap: 1, Policy: PolicyShed, RetryAfter: 3 * time.Second,
	})
	ts := httptest.NewServer(NewServer(ing, t.Logf).Handler())
	defer ts.Close()
	defer ing.Drain(context.Background())

	if resp := postJSON(t, ts.URL+"/v1/ingest", streamRecord(base, 0)); resp.StatusCode != http.StatusOK {
		t.Fatalf("first record: %s", resp.Status)
	}
	resp := postJSON(t, ts.URL+"/v1/ingest", streamRecord(base, 1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity record: %s, want 429", resp.Status)
	}
	// The hint is jittered to ±50% of the configured 3s so shed clients
	// spread their retries: header seconds in [ceil(1.5) .. ceil(4.5)].
	sec, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || sec < 2 || sec > 5 {
		t.Fatalf("Retry-After header = %q, want an integer in [2,5]", resp.Header.Get("Retry-After"))
	}
	var envelope errorBody
	decodeBody(t, resp, &envelope)
	if envelope.Error.Code != "overloaded" {
		t.Fatalf("shed envelope = %+v", envelope.Error)
	}
	if ms := envelope.Error.RetryAfterMS; ms < 1500 || ms > 4500 {
		t.Fatalf("retry_after_ms = %d, want within the jitter window [1500,4500]", ms)
	}
}

// TestServerDrainOnShutdownSignal mirrors coldserve's SIGTERM semantics:
// cancelling Serve's context (exactly what signal.NotifyContext does on
// SIGTERM) stops the listener, flushes the queue through a final fold,
// checkpoints, and closes the WAL — and Serve returns nil for exit 0.
func TestServerDrainOnShutdownSignal(t *testing.T) {
	base := testBase(t)
	dir := t.TempDir()
	ing := newTestIngester(t, Config{
		WALDir: dir, Base: base, Sweeps: 2, FoldEvery: time.Hour, // folding only via drain
	})
	ctx, cancel := context.WithCancel(context.Background())
	ing.Start(ctx)
	srv := NewServer(ing, t.Logf)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	url := fmt.Sprintf("http://%s/v1/ingest", ln.Addr())

	const n = 7
	for i := 0; i < n; i++ {
		if resp := postJSON(t, url, streamRecord(base, i)); resp.StatusCode != http.StatusOK {
			t.Fatalf("record %d: %s", i, resp.Status)
		}
	}

	cancel() // SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after drain: %v, want nil (exit 0)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the drain signal")
	}
	st := ing.Status()
	if !st.Draining || st.AppliedSeq != n || st.QueueDepth != 0 {
		t.Fatalf("post-drain status = %+v, want %d applied, empty queue", st, n)
	}
	// The final checkpoint covers everything: a restart replays nothing
	// and resumes at the right sequence number.
	ing2, rec, err := New(Config{WALDir: dir, Base: base, Sweeps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedBytes != 0 || len(rec.Quarantined) != 0 {
		t.Fatalf("drain left a dirty wal: %+v", rec)
	}
	if got := ing2.Status().AppliedSeq; got != n {
		t.Fatalf("restart watermark = %d, want %d", got, n)
	}
	if err := ing2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
