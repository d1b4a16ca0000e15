package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/cold-diffusion/cold/internal/core"
	"github.com/cold-diffusion/cold/internal/corpus"
	"github.com/cold-diffusion/cold/internal/envelope"
	"github.com/cold-diffusion/cold/internal/faultinject"
	"github.com/cold-diffusion/cold/internal/overload"
	"github.com/cold-diffusion/cold/internal/text"
)

// Config holds the server's resilience knobs. Zero values get sensible
// defaults from New.
type Config struct {
	// MaxInFlight is the concurrency CEILING for admitted prediction
	// requests. The adaptive limiter starts here and walks the live
	// limit down (multiplicatively, on deadline misses or latency
	// inflation) and back up (additively, under healthy saturation);
	// it never exceeds this value. Health and model-admin endpoints
	// are not admission-controlled, so operators can always see in.
	MaxInFlight int
	// LimitFloor is the adaptive limiter's lower bound; 0 →
	// MaxInFlight/16 (min 1). Negative pins the limit at MaxInFlight,
	// reproducing the old static admission pool, and disables the
	// brownout ladder.
	LimitFloor int
	// QueueCap bounds the deadline-aware priority queue in front of
	// the limiter; 0 → 4 × MaxInFlight. Negative disables queuing:
	// over-limit arrivals shed immediately with 429 (the old
	// semantics).
	QueueCap int
	// LimitWindow is the limiter's adjustment window in completions;
	// 0 → 16.
	LimitWindow int
	// BrownoutHold is the ladder's minimum dwell time at a level
	// before stepping down; 0 → 2s.
	BrownoutHold time.Duration
	// BrownoutRankK clamps /v1/rank result size at brownout L2+;
	// 0 → 10.
	BrownoutRankK int
	// RequestTimeout bounds each prediction request end to end.
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful shutdown: in-flight requests get
	// this long to finish after the drain signal before the listener is
	// torn down hard.
	DrainTimeout time.Duration
	// RetryAfter is the base hint sent with 429 responses; the emitted
	// value is jittered ±50% so a shed burst doesn't come back as a
	// synchronized retry herd (matching the ingest-side jitter).
	RetryAfter time.Duration
	// BatchWindow is the micro-batching window: concurrent single-score
	// requests arriving within it coalesce into one Engine batch.
	// 0 → 1ms; negative disables coalescing (every request flushes
	// alone, still through the cache).
	BatchWindow time.Duration
	// BatchMax flushes a micro-batch early once this many items are
	// pending; 0 → 64.
	BatchMax int
	// MaxBatchItems bounds one POST /v1/score/batch request; 0 → 512.
	MaxBatchItems int
	// CacheEntries sizes the generation-keyed prediction cache (total
	// entries across shards). 0 → 32768; negative disables caching.
	CacheEntries int
	// ShardIndex/ShardCount describe this replica's slice of the user
	// space when serving behind the cluster router; both zero means
	// unsharded. They are advertised in /v1/healthz so the router can
	// cross-check its topology.
	ShardIndex int
	ShardCount int
	// ShardOwner, when set, reports whether this replica owns a routing
	// user. Requests for users it does not own are refused with 421
	// (misdirected request) instead of silently answered from the wrong
	// shard's state. The function is injected (cluster.ShardOf wired by
	// the binary) so this package never imports the routing tier.
	ShardOwner func(user int) bool
	// Logf, when set, receives lifecycle events.
	Logf func(format string, args ...any)
	// Metrics, when set, instruments the request path and exposes the
	// registry at /metrics (and the /v1/metrics alias). Share the same
	// Metrics with ManagerConfig so model lifecycle gauges land on the
	// same page.
	Metrics *Metrics
}

// Server is the COLD prediction server. Build with New, then run with
// Serve; Handler exposes the routes for tests and embedding.
type Server struct {
	cfg Config
	mgr *Manager
	// data provides post content for index-based queries; nil means
	// queries must carry explicit word ids.
	data *corpus.Dataset

	// itemScope resolves posts against data and checks shard ownership;
	// scope adds the serving snapshot's model per request.
	itemScope Scope

	ctrl     *overload.Controller
	ladder   *overload.Ladder // nil → brownout disabled (static mode)
	batch    *batcher         // nil → micro-batching disabled
	cache    *scoreCache      // nil → score caching disabled
	draining atomic.Bool
	start    time.Time

	served       atomic.Uint64
	panics       atomic.Uint64
	rejected     atomic.Uint64 // 4xx input errors
	staleServed  atomic.Uint64 // previous-generation cache hits (brownout L1+)
	fallbackBulk atomic.Uint64 // low-tier requests answered from the prior (L3)
	pastDeadline atomic.Uint64 // successes suppressed by the deadline writer
}

// New builds a server around a model manager and an optional dataset.
func New(cfg Config, mgr *Manager, data *corpus.Dataset) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.BatchWindow == 0 {
		cfg.BatchWindow = time.Millisecond
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 64
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = 512
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 32768
	}
	if cfg.BrownoutRankK <= 0 {
		cfg.BrownoutRankK = 10
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:   cfg,
		mgr:   mgr,
		data:  data,
		start: time.Now(),
	}
	if data != nil {
		s.itemScope.Post = s.post
	}
	if cfg.ShardOwner != nil {
		s.itemScope.Owner = s.ownership
	}
	s.ctrl = overload.NewController(overload.Config{
		Ceiling:  cfg.MaxInFlight,
		Floor:    cfg.LimitFloor,
		QueueCap: cfg.QueueCap,
		Window:   cfg.LimitWindow,
		// The hook runs under the controller's lock; shedOne only
		// touches atomics, so it qualifies as cheap.
		OnShed: cfg.Metrics.shedOne,
	})
	if s.ctrl.Adaptive() {
		s.ladder = overload.NewLadder(overload.LadderConfig{Hold: cfg.BrownoutHold})
	}
	if cfg.CacheEntries > 0 {
		s.cache = newScoreCache(cfg.CacheEntries, cfg.Metrics)
	}
	if cfg.BatchWindow > 0 {
		s.batch = newBatcherFunc(s.batchWindow, cfg.BatchMax, s.flushBatch)
	}
	return s
}

// batchWindow is the micro-batcher's live window: the configured base,
// widened ×brownoutBatchFactor at brownout L1+ so batches amortise more
// per-request overhead exactly when the server is under pressure.
func (s *Server) batchWindow() time.Duration {
	if s.brownoutLevel() >= brownoutWideBatch {
		return s.cfg.BatchWindow * brownoutBatchFactor
	}
	return s.cfg.BatchWindow
}

// Handler returns the full route table: the versioned /v1 surface,
// permanent redirects from the legacy paths, and (with Metrics set) the
// Prometheus exposition. Every non-2xx body — including mux-generated
// 404/405 and timeout 503s — carries the shared error envelope.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	// Canonical, versioned surface. /v1 is a contract: routes are only
	// added here, never changed or removed, within the major version.
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/model", s.handleModel)
	mux.HandleFunc("POST /v1/model/reload", s.handleReload)
	mux.HandleFunc("POST /v1/model/rollback", s.handleRollback)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	for _, rt := range Routes {
		mux.Handle("POST "+rt.Path, s.guard(string(rt.Kind), s.scoreSingle(rt.Kind)))
	}
	mux.Handle("POST /v1/score/batch", s.guard("batch", s.handleScoreBatch))
	mux.Handle("GET /v1/rank/{user}", s.guard("rank", s.handleRank))
	if mh := s.cfg.Metrics.Handler(); mh != nil {
		// /metrics is the conventional scrape path; /v1/metrics is the
		// in-contract alias.
		mux.Handle("GET /metrics", mh)
		mux.Handle("GET /v1/metrics", mh)
	}

	// Legacy paths redirect permanently; 308 preserves the method and
	// body, so POSTing clients migrate transparently.
	redirect := func(target string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Redirect(w, r, target, http.StatusPermanentRedirect)
		})
	}
	mux.Handle("GET /healthz", redirect("/v1/healthz"))
	mux.Handle("GET /readyz", redirect("/v1/readyz"))
	mux.Handle("POST /v1/predict/topics", redirect("/v1/topics"))

	return envelope.Middleware(mux)
}

// guardInfo travels through the request context so the inner handler
// goroutine (which outlives the timeout) can release the admission
// ticket when the work really finishes.
type guardInfo struct {
	ticket   *overload.Ticket
	deadline time.Time // zero = none
}

// guard wraps a prediction handler in the admission stack, outermost
// first: brownout shedding, deadline-aware priority admission, then the
// per-request deadline, then panic containment around the handler.
//
// The in-flight slot is released by the inner handler goroutine, not
// when the timeout fires — an abandoned slow handler still occupies
// capacity until it really finishes, so the limit honestly bounds
// concurrent work rather than concurrent waiting clients. That late
// release is also exactly the latency/deadline-miss signal the AIMD
// limiter feeds on.
func (s *Server) guard(route string, h http.HandlerFunc) http.Handler {
	mt := s.cfg.Metrics
	def := RouteTier(route)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gi, _ := r.Context().Value(ticketKey{}).(*guardInfo)
		defer func() {
			if gi == nil {
				return
			}
			miss := !gi.deadline.IsZero() && time.Now().After(gi.deadline)
			s.ctrl.Release(gi.ticket, miss)
			s.observeBrownout()
			mt.released()
		}()
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				mt.panicked()
				s.cfg.Logf("serve: panic in %s: %v", r.URL.Path, rec)
				envelope.WriteError(w, http.StatusInternalServerError, "internal",
					fmt.Sprintf("internal error: %v", rec))
			}
		}()
		faultinject.Fire(faultinject.ServeHandler, r.URL.Path)
		h(w, r)
	})
	timed := http.TimeoutHandler(inner, s.cfg.RequestTimeout, timeoutBody)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			envelope.WriteError(w, http.StatusServiceUnavailable, "draining", "server is draining")
			return
		}
		tier := requestTier(r, def)
		deadline, hasDL, derr := requestDeadline(r)
		if derr != nil {
			s.reject(w, derr.Error())
			return
		}
		// Dead on arrival: a deadline that has already passed can only
		// produce a response the client will discard. Reject before
		// burning an admission slot or a queue place on it.
		if hasDL && !time.Now().Before(deadline) {
			s.ctrl.RecordShed(tier, overload.ReasonDeadlineUnmeetable)
			envelope.WriteError(w, http.StatusServiceUnavailable, "deadline_exceeded",
				"request deadline already expired at admission")
			return
		}
		lvl := s.observeBrownout()
		if s.brownoutShed(w, route, tier, lvl) {
			return
		}

		// Admission may queue; bound the wait by the request timeout so a
		// deadline-less request cannot park forever. The propagated
		// deadline is passed to Admit separately (NOT as a context
		// deadline) so its expiry while queued is attributed precisely as
		// expired_in_queue rather than racing ctx.Err().
		admitCtx, cancelAdmit := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		var admitDL time.Time
		if hasDL {
			admitDL = deadline
		}
		ticket, err := s.ctrl.Admit(admitCtx, tier, admitDL)
		cancelAdmit()
		if err != nil {
			s.shedError(w, err)
			return
		}
		s.served.Add(1)
		mt.admitted(route)

		gi := &guardInfo{ticket: ticket, deadline: admitDL}
		ctx := context.WithValue(r.Context(), tierKey{}, tier)
		ctx = context.WithValue(ctx, ticketKey{}, gi)
		if hasDL {
			// The propagated deadline becomes the serving context's
			// deadline (the scoring path aborts on it) AND a response-
			// writer fence: a success computed in time but written late is
			// rewritten into deadline_exceeded. Between them, nothing is
			// ever served past its deadline.
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, deadline)
			defer cancel()
			w = &deadlineWriter{ResponseWriter: w, deadline: deadline, onMiss: func() {
				s.pastDeadline.Add(1)
				mt.pastDeadlineOne()
			}}
		}
		start := time.Now()
		timed.ServeHTTP(w, r.WithContext(ctx))
		mt.finished(route, time.Since(start).Seconds())
	})
}

// Serve runs the server on ln until ctx is cancelled (SIGTERM in the
// coldserve binary), then drains: new work is refused, in-flight
// requests get DrainTimeout to finish, and the method returns once the
// listener is down. A clean drain returns nil.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// The per-request base context is deliberately NOT derived from ctx:
	// the whole point of draining is that in-flight requests finish
	// after the drain signal fires.
	httpSrv := &http.Server{
		Handler:     s.Handler(),
		BaseContext: func(net.Listener) context.Context { return context.Background() },
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err // listener died on its own
	case <-ctx.Done():
	}
	s.draining.Store(true)
	s.cfg.Logf("serve: drain started (deadline %s)", s.cfg.DrainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		httpSrv.Close()
		return fmt.Errorf("serve: drain deadline exceeded: %w", err)
	}
	s.cfg.Logf("serve: drained cleanly")
	return nil
}

// ---- request/response plumbing ----

// timeoutBody is what http.TimeoutHandler writes on deadline. It is
// already the envelope, and the envelope middleware re-stamps the
// Content-Type (TimeoutHandler cannot set one).
const timeoutBody = `{"error":{"code":"deadline_exceeded","message":"request deadline exceeded"}}`

// decode parses and bounds the request body.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		s.reject(w, "bad request body: "+err.Error())
		return false
	}
	return true
}

// reject answers a 400 input-validation failure and counts it.
func (s *Server) reject(w http.ResponseWriter, msg string) {
	ei := badRequest(msg)
	envelope.WriteError(w, s.refuse(ei), ei.Code, ei.Message)
}

// refuse counts a refused request or item — a misroute or an input
// error — and returns the status a single route answers it with.
func (s *Server) refuse(ei *envelope.Error) int {
	if ei.Code == "wrong_shard" {
		s.cfg.Metrics.misrouted()
		return http.StatusMisdirectedRequest
	}
	s.rejected.Add(1)
	s.cfg.Metrics.rejectedOne()
	return http.StatusBadRequest
}

// snapshot returns the serving snapshot or answers 503. A degraded
// snapshot is counted: the request is still served, but the fleet's
// degraded-traffic rate is an alerting signal.
func (s *Server) snapshot(w http.ResponseWriter) *Snapshot {
	snap := s.mgr.Current()
	if snap == nil {
		envelope.WriteError(w, http.StatusServiceUnavailable, "not_ready", "no model loaded")
		return nil
	}
	if snap.Degraded() {
		s.cfg.Metrics.degradedOne()
	}
	return snap
}

// scope is what items are validated against on this replica: the
// snapshot's model plus the dataset and shard set up in New.
func (s *Server) scope(snap *Snapshot) *Scope {
	sc := s.itemScope
	sc.Info = snap.Engine.Info()
	return &sc
}

// post resolves a post index into the loaded dataset.
func (s *Server) post(p int) (text.BagOfWords, error) {
	if p < 0 || p >= len(s.data.Posts) {
		return text.BagOfWords{}, fmt.Errorf("post %d out of range [0,%d)", p, len(s.data.Posts))
	}
	return s.data.Posts[p].Words, nil
}

// ownership enforces shard ownership of a routing user. A non-nil
// return means the router misrouted the query — answering from the
// wrong shard's state would be silently wrong.
func (s *Server) ownership(field string, user int) *envelope.Error {
	if s.cfg.ShardOwner(user) {
		return nil
	}
	return &envelope.Error{
		Code: "wrong_shard",
		Message: fmt.Sprintf("%s %d is not owned by shard %d/%d",
			field, user, s.cfg.ShardIndex, s.cfg.ShardCount),
	}
}

// scoreFailed writes the envelope for a hot-path failure: the batcher
// had no snapshot, the request deadline fired while parked, or the
// engine failed the item.
func (s *Server) scoreFailed(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errNotReady):
		envelope.WriteError(w, http.StatusServiceUnavailable, "not_ready", "no model loaded")
	case errors.Is(err, ErrDegraded):
		envelope.WriteError(w, http.StatusServiceUnavailable, "degraded",
			"topic posterior unavailable in degraded mode (no topic model loaded)")
	case errors.Is(err, ErrBadItem):
		s.reject(w, err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		envelope.WriteError(w, http.StatusServiceUnavailable, "deadline_exceeded", "request deadline exceeded")
	default:
		envelope.WriteError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// itemError maps a per-item engine error onto the envelope codes the
// single routes use for the same condition.
func itemError(err error) *envelope.Error {
	switch {
	case errors.Is(err, ErrDegraded):
		return &envelope.Error{Code: "degraded", Message: err.Error()}
	case errors.Is(err, ErrBadItem):
		return badRequest(err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return &envelope.Error{Code: "deadline_exceeded", Message: "request deadline exceeded"}
	default:
		return &envelope.Error{Code: "internal", Message: err.Error()}
	}
}

// ---- handlers ----

// pathKind takes the "kind" key of a single-route body: the path names
// the kind, so the key is refused exactly as an unknown field is.
type pathKind struct{}

func (pathKind) UnmarshalJSON([]byte) error { return errors.New(`json: unknown field "kind"`) }

// scoreSingle serves the single-score route of kind: a one-item view of
// /v1/score/batch, validated by the same Build and submitted through
// the micro-batcher (scoreOne), so single-call traffic gets the same
// coalescing and caching. The response carries the generation the
// batch was actually scored against.
func (s *Server) scoreSingle(kind Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		snap := s.snapshot(w)
		if snap == nil {
			return
		}
		var body struct {
			ScoreItem
			Kind pathKind `json:"kind"`
		}
		if !s.decode(w, r, &body) {
			return
		}
		it := &body.ScoreItem
		it.Kind = kind
		req, ei := it.Build(s.scope(snap))
		if ei != nil {
			envelope.WriteError(w, s.refuse(ei), ei.Code, ei.Message)
			return
		}
		res, fsnap, err := s.scoreOne(r.Context(), req)
		if err == nil {
			err = res.Err
		}
		if err != nil {
			s.scoreFailed(w, err)
			return
		}
		envelope.WriteJSON(w, http.StatusOK,
			Single(kind, &res, it.TopN, fsnap.Generation, fsnap.Key, fsnap.Degraded()))
	}
}

// handleScoreBatch is the batch-first scoring endpoint: a mixed list of
// retweet/link/time/topics items scored against one snapshot, answered
// 200 with a per-item status slot — an invalid or degraded item fails
// alone, in place, without failing its siblings.
func (s *Server) handleScoreBatch(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot(w)
	if snap == nil {
		return
	}
	// Deep brownout: low-tier bulk scoring is answered from the
	// popularity prior — validation and scoring both run against it so
	// the response never mixes snapshots.
	if fb := s.brownoutSnapshot(r.Context()); fb != nil {
		snap = fb
	}
	var body struct {
		Items []ScoreItem `json:"items"`
	}
	if !s.decode(w, r, &body) {
		return
	}
	if len(body.Items) == 0 {
		s.reject(w, "empty items")
		return
	}
	if len(body.Items) > s.cfg.MaxBatchItems {
		s.reject(w, fmt.Sprintf("batch of %d items exceeds the limit of %d",
			len(body.Items), s.cfg.MaxBatchItems))
		return
	}
	sc := s.scope(snap)
	results := make([]ItemResult, len(body.Items))
	reqs := make([]ScoreRequest, 0, len(body.Items))
	idx := make([]int, 0, len(body.Items))
	for i := range body.Items {
		req, ei := body.Items[i].Build(sc)
		if ei != nil {
			s.refuse(ei)
			results[i] = ErrorSlot(ei)
			continue
		}
		reqs = append(reqs, req)
		idx = append(idx, i)
	}
	scored := s.scoreBatch(r.Context(), snap, reqs)
	for j, i := range idx {
		results[i] = Slot(reqs[j].Kind, &scored[j], body.Items[i].TopN)
	}
	envelope.WriteJSON(w, http.StatusOK, struct {
		Results    []ItemResult `json:"results"`
		Generation uint64       `json:"generation"`
		ModelKey   string       `json:"model_key,omitempty"`
		Degraded   bool         `json:"degraded"`
	}{results, snap.Generation, snap.Key, snap.Degraded()})
}

// handleRank serves the per-reload precomputed candidate rankings:
// GET /v1/rank/{user}?k=N.
func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot(w)
	if snap == nil {
		return
	}
	user, err := strconv.Atoi(r.PathValue("user"))
	if err != nil {
		s.reject(w, "bad user path segment "+strconv.Quote(r.PathValue("user")))
		return
	}
	info := snap.Engine.Info()
	if user < 0 || user >= info.Users {
		s.reject(w, fmt.Sprintf("user %d out of range [0,%d)", user, info.Users))
		return
	}
	if s.cfg.ShardOwner != nil {
		if ei := s.ownership("user", user); ei != nil {
			envelope.WriteError(w, s.refuse(ei), ei.Code, ei.Message)
			return
		}
	}
	n := 0
	if q := r.URL.Query().Get("k"); q != "" {
		n, err = strconv.Atoi(q)
		if err != nil || n < 0 {
			s.reject(w, "bad k query parameter "+strconv.Quote(q))
			return
		}
	}
	// Brownout L2+: clamp the result size. A smaller k is still a
	// correct ranking prefix, just a cheaper and smaller response.
	if s.brownoutLevel() >= brownoutShrinkRank && (n == 0 || n > s.cfg.BrownoutRankK) {
		n = s.cfg.BrownoutRankK
	}
	cands, err := snap.Engine.Rank(user, n)
	switch {
	case errors.Is(err, ErrDegraded):
		envelope.WriteError(w, http.StatusServiceUnavailable, "degraded",
			"candidate rankings unavailable in degraded mode (no full model loaded)")
		return
	case errors.Is(err, ErrBadItem):
		s.reject(w, err.Error())
		return
	case err != nil:
		envelope.WriteError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	envelope.WriteJSON(w, http.StatusOK, struct {
		User       int                    `json:"user"`
		Candidates []core.RankedCandidate `json:"candidates"`
		Generation uint64                 `json:"generation"`
		ModelKey   string                 `json:"model_key,omitempty"`
	}{user, cands, snap.Generation, snap.Key})
}

// handleHealthz reports liveness plus the routing-relevant identity:
// which model generation this replica answers from, whether it is
// degraded, and whether it is draining (503, so routers and probes stop
// sending work without a special case). All fields are additive to the
// original {status, uptime_s} body.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// A health probe is a natural pressure sample: it keeps the ladder
	// stepping down even when prediction traffic has gone quiet.
	lvl := s.observeBrownout()
	st := s.ctrl.Stats()
	s.cfg.Metrics.overloadAt(st)
	body := struct {
		Status         string  `json:"status"`
		UptimeS        float64 `json:"uptime_s"`
		Generation     uint64  `json:"generation"`
		ModelKey       string  `json:"model_key,omitempty"`
		Degraded       bool    `json:"degraded"`
		Draining       bool    `json:"draining"`
		Shard          *int    `json:"shard,omitempty"`
		Shards         int     `json:"shards,omitempty"`
		BrownoutLevel  int     `json:"brownout_level"`
		ConcurrencyLim int     `json:"concurrency_limit"`
		QueueDepth     int     `json:"queue_depth"`
		Pressure       float64 `json:"pressure"`
	}{Status: "ok", UptimeS: time.Since(s.start).Seconds(),
		BrownoutLevel: lvl, ConcurrencyLim: st.Limit,
		QueueDepth: st.Queued, Pressure: st.Pressure}
	if snap := s.mgr.Current(); snap != nil {
		body.Generation = snap.Generation
		body.ModelKey = snap.Key
		body.Degraded = snap.Degraded()
	}
	if s.cfg.ShardCount > 0 {
		idx := s.cfg.ShardIndex
		body.Shard, body.Shards = &idx, s.cfg.ShardCount
	}
	code := http.StatusOK
	if s.draining.Load() {
		body.Status, body.Draining, code = "draining", true, http.StatusServiceUnavailable
	}
	envelope.WriteJSON(w, code, body)
}

// readyState summarises the lifecycle for orchestration probes.
func (s *Server) readyState() (string, int) {
	if s.draining.Load() {
		return "draining", http.StatusServiceUnavailable
	}
	snap := s.mgr.Current()
	switch {
	case snap == nil:
		return "starting", http.StatusServiceUnavailable
	case snap.Degraded():
		// Still 200: the pod can answer queries, just worse ones. The
		// orchestrator should keep it in rotation while alerting on the
		// reported state.
		return "degraded", http.StatusOK
	default:
		return "ready", http.StatusOK
	}
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	state, code := s.readyState()
	envelope.WriteJSON(w, code, struct {
		State string `json:"state"`
		Status
	}{state, s.mgr.Status()})
}

func (s *Server) handleModel(w http.ResponseWriter, _ *http.Request) {
	snap := s.snapshot(w)
	if snap == nil {
		return
	}
	envelope.WriteJSON(w, http.StatusOK, struct {
		ModelInfo
		Source     string    `json:"source"`
		Generation uint64    `json:"generation"`
		LoadedAt   time.Time `json:"loaded_at"`
	}{snap.Engine.Info(), snap.Source, snap.Generation, snap.LoadedAt})
}

func (s *Server) handleReload(w http.ResponseWriter, _ *http.Request) {
	if err := s.mgr.Reload(); err != nil {
		envelope.WriteError(w, http.StatusBadGateway, "reload_rejected", err.Error())
		return
	}
	envelope.WriteJSON(w, http.StatusOK, s.mgr.Status())
}

func (s *Server) handleRollback(w http.ResponseWriter, _ *http.Request) {
	if err := s.mgr.Rollback(); err != nil {
		envelope.WriteError(w, http.StatusConflict, "rollback_unavailable", err.Error())
		return
	}
	envelope.WriteJSON(w, http.StatusOK, s.mgr.Status())
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	lvl := s.observeBrownout()
	st := s.ctrl.Stats()
	s.cfg.Metrics.overloadAt(st)
	var shed uint64
	for _, n := range st.Sheds {
		shed += n
	}
	envelope.WriteJSON(w, http.StatusOK, struct {
		Served        uint64         `json:"served"`
		Shed          uint64         `json:"shed"`
		Panics        uint64         `json:"panics"`
		Rejected      uint64         `json:"rejected"`
		StaleServed   uint64         `json:"stale_served"`
		FallbackBulk  uint64         `json:"fallback_served"`
		PastDeadline  uint64         `json:"past_deadline_suppressed"`
		BrownoutLevel int            `json:"brownout_level"`
		Overload      overload.Stats `json:"overload"`
		Model         Status         `json:"model"`
	}{s.served.Load(), shed, s.panics.Load(), s.rejected.Load(),
		s.staleServed.Load(), s.fallbackBulk.Load(), s.pastDeadline.Load(),
		lvl, st, s.mgr.Status()})
}
