package ingest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"github.com/cold-diffusion/cold/internal/envelope"
	"github.com/cold-diffusion/cold/internal/overload"
)

// Server is the firehose front door: a thin HTTP layer over an Ingester
// speaking the same versioned /v1 surface and JSON error envelope as the
// prediction server, so one client library handles both.
type Server struct {
	ing   *Ingester
	logf  func(format string, args ...any)
	start time.Time

	// DrainTimeout bounds the HTTP listener drain AND the ingester's
	// queue drain on shutdown; 0 → 30s (the final fold can be slow).
	DrainTimeout time.Duration
}

// NewServer wraps an ingester. logf may be nil.
func NewServer(ing *Ingester, logf func(format string, args ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{ing: ing, logf: logf, start: time.Now(), DrainTimeout: 30 * time.Second}
}

// Handler returns the route table:
//
//	POST /v1/ingest         one PostRecord; 200 {"seq","durable"} once WAL-durable
//	GET  /v1/ingest/status  pipeline watermarks and queue state
//	GET  /v1/healthz        process liveness
//	GET  /metrics           Prometheus exposition (alias /v1/metrics)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("GET /v1/ingest/status", s.handleStatus)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	if mh := s.ing.cfg.Metrics.Handler(); mh != nil {
		mux.Handle("GET /metrics", mh)
		mux.Handle("GET /v1/metrics", mh)
	}
	return envelope.Middleware(mux)
}

// ingestResponse acknowledges one accepted record. seq is the record's
// durable identity: submitting the same content again yields a new seq
// (at-least-once), and consumers dedup by seq, not payload.
type ingestResponse struct {
	Seq     uint64 `json:"seq"`
	Durable bool   `json:"durable"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	// The cross-tier deadline contract: an already-expired propagated
	// X-Cold-Deadline-Ms is rejected before any work, and a live one
	// bounds the blocking backpressure wait inside Submit.
	ctx := r.Context()
	if v := r.Header.Get(overload.DeadlineHeader); v != "" {
		ms, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil {
			envelope.WriteError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("bad %s header %q", overload.DeadlineHeader, v))
			return
		}
		if ms <= 0 {
			envelope.WriteError(w, http.StatusServiceUnavailable, "deadline_exceeded",
				"request deadline already expired at admission")
			return
		}
		dctx, cancel := context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
		ctx = dctx
	}
	var rec PostRecord
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		envelope.WriteError(w, http.StatusBadRequest, "bad_request", "bad request body: "+err.Error())
		return
	}
	seq, err := s.ing.Submit(ctx, rec)
	switch {
	case err == nil:
		envelope.WriteJSON(w, http.StatusOK, ingestResponse{Seq: seq, Durable: true})
	case errors.Is(err, ErrInvalidRecord):
		envelope.WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
	case errors.Is(err, ErrOverloaded):
		envelope.WriteShed(w, http.StatusTooManyRequests, "overloaded",
			"ingest queue full, retry later", s.ing.RetryAfter())
	case errors.Is(err, ErrDraining):
		envelope.WriteError(w, http.StatusServiceUnavailable, "draining", "ingester is draining")
	case errors.Is(err, context.DeadlineExceeded):
		// The propagated deadline ran out while blocked on backpressure;
		// nothing durable happened, and the upstream has already given
		// up on the answer.
		envelope.WriteError(w, http.StatusServiceUnavailable, "deadline_exceeded",
			"request deadline expired before the record was durable")
	case errors.Is(err, context.Canceled):
		// The client went away while blocked on backpressure; nothing
		// durable happened. 503 tells a proxy the request is retryable.
		envelope.WriteError(w, http.StatusServiceUnavailable, "canceled", "request canceled before the record was durable")
	default:
		s.logf("ingest: submit failed: %v", err)
		envelope.WriteError(w, http.StatusInternalServerError, "wal_error", "record could not be made durable")
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	envelope.WriteJSON(w, http.StatusOK, s.ing.Status())
}

// handleHealthz reports liveness plus the published model generation
// and drain state, in the same shape the prediction server reports, so
// one prober handles both daemons. Draining answers 503 — routers and
// load balancers stop sending work without a special case. It reads
// only lock-free state, so it stays responsive while a drain or slow
// fold holds the fold lock.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := struct {
		Status     string  `json:"status"`
		UptimeS    float64 `json:"uptime_s"`
		Generation uint64  `json:"generation"`
		Degraded   bool    `json:"degraded"`
		Draining   bool    `json:"draining"`
	}{Status: "ok", UptimeS: time.Since(s.start).Seconds(),
		Generation: s.ing.Generation()}
	code := http.StatusOK
	if s.ing.Draining() {
		body.Status, body.Draining, code = "draining", true, http.StatusServiceUnavailable
	}
	envelope.WriteJSON(w, code, body)
}

// Serve runs the firehose endpoint on ln until ctx is cancelled, then
// shuts down in dependency order: stop the listener (in-flight requests
// finish), then drain the ingester — flush the queue, final checkpoint
// and publish, sync and close the WAL. A clean drain returns nil.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	httpSrv := &http.Server{
		Handler: s.Handler(),
		// In-flight requests must outlive the drain signal; see
		// serve.Server.Serve for the same reasoning.
		BaseContext: func(net.Listener) context.Context { return context.Background() },
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		// The listener died on its own: still drain so acked records are
		// checkpointed before the process exits.
		dctx, cancel := context.WithTimeout(context.Background(), s.DrainTimeout)
		defer cancel()
		if derr := s.ing.Drain(dctx); derr != nil {
			s.logf("ingest: drain after listener failure: %v", derr)
		}
		return err
	case <-ctx.Done():
	}
	s.logf("ingest: drain started (deadline %s)", s.DrainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), s.DrainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		httpSrv.Close()
		// Keep going: the WAL flush matters more than the stragglers.
		s.logf("ingest: listener drain deadline exceeded: %v", err)
	}
	if err := s.ing.Drain(dctx); err != nil {
		return fmt.Errorf("ingest: drain: %w", err)
	}
	s.logf("ingest: drained cleanly")
	return nil
}
