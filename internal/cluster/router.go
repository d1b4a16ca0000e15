package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cold-diffusion/cold/internal/envelope"
	"github.com/cold-diffusion/cold/internal/faultinject"
	"github.com/cold-diffusion/cold/internal/overload"
	"github.com/cold-diffusion/cold/internal/serve"
	"github.com/cold-diffusion/cold/internal/text"
)

// Config holds the router's topology and resilience knobs. Zero values
// get sensible defaults from New; only Shards is required.
type Config struct {
	// Shards is the backend topology: Shards[i] is the replica pool
	// (base URLs, e.g. "http://127.0.0.1:8081") serving shard i. Users
	// are assigned to shards with ShardOf(user, len(Shards)).
	Shards [][]string

	// RequestTimeout bounds one routed request end to end, including
	// every retry and hedge; 0 → 2s. The deadline propagates to the
	// replicas through the outgoing request contexts, so an abandoned
	// attempt is cancelled downstream, not just ignored.
	RequestTimeout time.Duration
	// AttemptTimeout bounds a single forwarded attempt; 0 →
	// RequestTimeout/2.
	AttemptTimeout time.Duration
	// MaxAttempts caps forward attempts per request (first try
	// included); 0 → 3.
	MaxAttempts int
	// RetryBase/RetryMax shape the exponential backoff between retries;
	// the actual sleep is uniformly jittered in (0, d] ("full jitter").
	// 0 → 10ms / 250ms.
	RetryBase, RetryMax time.Duration
	// BudgetBurst and BudgetRatio configure the retry budget: at most
	// BudgetBurst banked tokens, earning BudgetRatio tokens per routed
	// request; every retry or hedge spends one. 0 → 10 / 0.1.
	BudgetBurst int
	BudgetRatio float64
	// HedgeAfter, when positive, fires a tail-latency hedge to a second
	// replica of the shard if the first attempt has not answered within
	// this delay. First usable response wins; the loser is cancelled.
	HedgeAfter time.Duration

	// ProbeEvery is the active health-probe interval (jittered ±20%);
	// 0 → 1s. ProbeTimeout bounds one probe; 0 → ProbeEvery/2.
	ProbeEvery   time.Duration
	ProbeTimeout time.Duration
	// EjectAfter ejects a replica after this many consecutive probe or
	// traffic failures; 0 → 3. ReadmitAfter readmits it after this many
	// consecutive probe successes; 0 → 2.
	EjectAfter   int
	ReadmitAfter int
	// SlowStart ramps a readmitted replica's selection probability
	// linearly from 0 to full over this window; 0 → 3s.
	SlowStart time.Duration

	// BreakerFailures consecutive whole-request failures open a shard's
	// breaker; 0 → 5. BreakerCooldown is the open window (jittered
	// ±25%); 0 → 2s. BreakerProbes bounds half-open trial requests;
	// 0 → 1.
	BreakerFailures int
	BreakerCooldown time.Duration
	BreakerProbes   int

	// RetryAfterHint is the base Retry-After when shedding with no
	// better estimate; 0 → 1s. The emitted value is jittered so shed
	// clients do not stampede back on the same tick.
	RetryAfterHint time.Duration

	// Fallback, when set, answers a shard's traffic (honestly marked
	// degraded) when every replica is unusable — the same
	// popularity-prior engine coldserve degrades to.
	Fallback serve.Engine
	// Posts resolves a post index to its bag of words for the fallback
	// path; nil means fallback requests must carry explicit words.
	Posts func(post int) (text.BagOfWords, bool)

	// Seed makes the router's jitter and slow-start draws reproducible;
	// 0 → 1.
	Seed int64
	// Logf, when set, receives lifecycle events.
	Logf func(format string, args ...any)
	// Metrics, when set, instruments the routing tier.
	Metrics *Metrics
	// Client overrides the forwarding HTTP client (tests); nil builds
	// one with a widened idle pool.
	Client *http.Client
}

// Router is the shard-by-user routing tier. Build with New, run the
// HTTP surface with Serve (or embed Handler), and start active health
// probing with StartProbes.
type Router struct {
	cfg      Config
	shards   [][]*replica
	all      []*replica
	rr       []atomic.Uint64 // per-shard round-robin cursor
	breakers []*breaker
	budget   *budget
	rng      *lockedRand
	client   *http.Client
	start    time.Time
	draining atomic.Bool
}

// New validates the topology and builds a router.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: Config.Shards is required")
	}
	for i, pool := range cfg.Shards {
		if len(pool) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no replicas", i)
		}
		for _, u := range pool {
			if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
				return nil, fmt.Errorf("cluster: replica %q of shard %d is not an http(s) URL", u, i)
			}
		}
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = cfg.RequestTimeout / 2
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 10 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 250 * time.Millisecond
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.ProbeEvery / 2
	}
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = 3
	}
	if cfg.ReadmitAfter <= 0 {
		cfg.ReadmitAfter = 2
	}
	if cfg.SlowStart <= 0 {
		cfg.SlowStart = 3 * time.Second
	}
	if cfg.RetryAfterHint <= 0 {
		cfg.RetryAfterHint = time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	rt := &Router{
		cfg:    cfg,
		rng:    newLockedRand(cfg.Seed),
		client: cfg.Client,
		start:  time.Now(),
	}
	if rt.client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 64
		rt.client = &http.Client{Transport: tr}
	}
	rt.shards = make([][]*replica, len(cfg.Shards))
	rt.rr = make([]atomic.Uint64, len(cfg.Shards))
	rt.breakers = make([]*breaker, len(cfg.Shards))
	for i, pool := range cfg.Shards {
		for _, u := range pool {
			rep := &replica{url: strings.TrimRight(u, "/"), shard: i, up: true}
			rt.shards[i] = append(rt.shards[i], rep)
			rt.all = append(rt.all, rep)
		}
		rt.breakers[i] = newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown,
			cfg.BreakerProbes, rt.rng.Float64, cfg.Metrics.breakerOpened)
	}
	rt.budget = newBudget(cfg.BudgetBurst, cfg.BudgetRatio)
	return rt, nil
}

// route describes one forwarded endpoint: its metric label, HTTP
// method (empty → POST), path, the score kind of a single-score route
// (empty for batch and rank), and the request's priority tier (the
// client's X-Cold-Priority when valid, the route default otherwise)
// with the raw header value kept for relay to the replica.
type route struct {
	name     string
	method   string
	path     string
	kind     serve.Kind
	tier     overload.Tier
	priority string
}

// hotBrownoutLevel is the replica brownout level at or above which the
// router stops pushing extra work: retries and hedges never select an
// L3+ replica, and a brownout shed answered by one is relayed to the
// client instead of retried into the heat.
const hotBrownoutLevel = 3

// stampPriority resolves the request's effective tier (a valid client
// X-Cold-Priority wins over the route default) and records the raw
// header value so attemptOne can relay it verbatim. An unknown name
// still relays — the replica applies the same fallback-to-default rule.
func stampPriority(req *http.Request, r *route) {
	r.tier = serve.RouteTier(r.name)
	if v := req.Header.Get(overload.PriorityHeader); v != "" {
		r.priority = v
		if t, ok := overload.ParseTier(v); ok {
			r.tier = t
		}
	}
}

// forwardCtx bounds one routed request by RequestTimeout and, when the
// client itself propagated X-Cold-Deadline-Ms, by that remaining budget
// too — a deadline set upstream of the router survives the hop instead
// of being stretched back out to the router's own timeout.
func (rt *Router) forwardCtx(req *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(req.Context(), rt.cfg.RequestTimeout)
	if ms, err := strconv.ParseInt(req.Header.Get(overload.DeadlineHeader), 10, 64); err == nil {
		if dl := time.Now().Add(time.Duration(ms) * time.Millisecond); dl.Before(mustDeadline(ctx)) {
			dctx, dcancel := context.WithDeadline(ctx, dl)
			outer := cancel
			ctx, cancel = dctx, func() { dcancel(); outer() }
		}
	}
	return ctx, cancel
}

// mustDeadline reads a deadline known to exist (forwardCtx always sets
// one via RequestTimeout).
func mustDeadline(ctx context.Context) time.Time {
	dl, _ := ctx.Deadline()
	return dl
}

// Handler returns the router's route table: the forwarded /v1
// prediction surface (single-score routes, the scatter/gather batch
// route, and the rank route), the shard map at /v1/cluster/status,
// liveness, and (with Metrics set) the Prometheus exposition. Non-2xx
// bodies carry the shared JSON error envelope.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range serve.Routes {
		mux.Handle("POST "+r.Path, rt.predict(route{name: string(r.Kind), path: r.Path, kind: r.Kind}))
	}
	mux.Handle("POST /v1/score/batch", rt.scoreBatch())
	mux.Handle("GET /v1/rank/{user}", rt.rank())
	mux.HandleFunc("GET /v1/cluster/status", rt.handleStatus)
	mux.HandleFunc("GET /v1/healthz", rt.handleHealthz)
	if mh := rt.cfg.Metrics.Handler(); mh != nil {
		mux.Handle("GET /metrics", mh)
		mux.Handle("GET /v1/metrics", mh)
	}
	return envelope.Middleware(mux)
}

// Serve runs the router on ln until ctx is cancelled, then drains like
// the replicas do: new work refused, in-flight forwards finished.
func (rt *Router) Serve(ctx context.Context, ln net.Listener) error {
	httpSrv := &http.Server{
		Handler:     rt.Handler(),
		BaseContext: func(net.Listener) context.Context { return context.Background() },
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	rt.draining.Store(true)
	rt.cfg.Logf("cluster: drain started")
	drainCtx, cancel := context.WithTimeout(context.Background(), rt.cfg.RequestTimeout+time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		httpSrv.Close()
		return fmt.Errorf("cluster: drain deadline exceeded: %w", err)
	}
	rt.cfg.Logf("cluster: drained cleanly")
	return nil
}

// ---- request admission and routing ----

// predict forwards a single-score route to the shard owning its routing
// user. Only the routing view is decoded; full validation stays on the
// replicas.
func (rt *Router) predict(r route) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if rt.draining.Load() {
			envelope.WriteError(w, http.StatusServiceUnavailable, "draining", "router is draining")
			return
		}
		rt.cfg.Metrics.request(r.name)
		rt.budget.earn()
		body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 1<<20))
		if err != nil {
			envelope.WriteError(w, http.StatusBadRequest, "bad_request", "bad request body: "+err.Error())
			return
		}
		var rv serve.Routing
		if err := json.Unmarshal(body, &rv); err != nil {
			envelope.WriteError(w, http.StatusBadRequest, "bad_request", "bad request body: "+err.Error())
			return
		}
		rv.Kind = r.kind
		field, user := rv.RoutingUser()
		if user == nil {
			envelope.WriteError(w, http.StatusBadRequest, "bad_request", "missing field "+field)
			return
		}
		if *user < 0 {
			envelope.WriteError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("%s %d out of range", field, *user))
			return
		}
		shard := ShardOf(*user, len(rt.shards))
		// Stamp a per-request copy: r is shared by every request of this
		// route, and priority is per-request state.
		pr := r
		stampPriority(req, &pr)
		start := time.Now()
		rt.forward(w, req, pr, shard, body)
		rt.cfg.Metrics.forwarded(time.Since(start).Seconds())
	}
}

// ---- batch scatter/gather ----

// routeItem finds the shard owning one /v1/score/batch item from its
// routing view alone; full validation stays on the replicas. A non-nil
// slot is the item's error answer: it cannot be routed.
func routeItem(raw []byte, shards int) (int, json.RawMessage) {
	var rv serve.Routing
	if err := json.Unmarshal(raw, &rv); err != nil {
		return 0, errorItem("bad_request", "bad batch item: "+err.Error())
	}
	_, user := rv.RoutingUser()
	if user == nil {
		return 0, errorItem("bad_request", "missing routing user field")
	}
	if *user < 0 {
		return 0, errorItem("bad_request", fmt.Sprintf("routing user %d out of range", *user))
	}
	return ShardOf(*user, shards), nil
}

// errorItem renders one failed batch slot in the replica's per-item
// shape, so merged responses stay uniform regardless of which side
// produced the slot.
func errorItem(code, msg string) json.RawMessage {
	b, _ := json.Marshal(serve.ErrorSlot(&envelope.Error{Code: code, Message: msg}))
	return b
}

// scoreBatch is the batched forwarding path: items are split by owning
// shard, each sub-batch rides the same hardened per-shard pipeline as a
// single score (pinning, retries, hedging, breakers), and the per-item
// results are merged back in input order. A failed shard fails only its
// own items — to per-item degraded answers when the fallback engine
// can produce them, per-item error slots otherwise.
func (rt *Router) scoreBatch() http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if rt.draining.Load() {
			envelope.WriteError(w, http.StatusServiceUnavailable, "draining", "router is draining")
			return
		}
		rt.cfg.Metrics.request("batch")
		rt.budget.earn()
		body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 4<<20))
		if err != nil {
			envelope.WriteError(w, http.StatusBadRequest, "bad_request", "bad request body: "+err.Error())
			return
		}
		var in struct {
			Items []json.RawMessage `json:"items"`
		}
		if err := json.Unmarshal(body, &in); err != nil {
			envelope.WriteError(w, http.StatusBadRequest, "bad_request", "bad request body: "+err.Error())
			return
		}
		if len(in.Items) == 0 {
			envelope.WriteError(w, http.StatusBadRequest, "bad_request", "empty items")
			return
		}

		start := time.Now()
		results := make([]json.RawMessage, len(in.Items))
		shardItems := make(map[int][]json.RawMessage)
		shardIdx := make(map[int][]int) // input slot of each sub-batch item
		for i, raw := range in.Items {
			shard, slot := routeItem(raw, len(rt.shards))
			if slot != nil {
				results[i] = slot
				continue
			}
			shardItems[shard] = append(shardItems[shard], raw)
			shardIdx[shard] = append(shardIdx[shard], i)
		}

		ctx, cancel := rt.forwardCtx(req)
		defer cancel()
		br := route{name: "batch", path: "/v1/score/batch"}
		stampPriority(req, &br)
		type shardReply struct {
			shard int
			out   forwardOutcome
		}
		replies := make(chan shardReply, len(shardItems))
		var wg sync.WaitGroup
		for shard, items := range shardItems {
			sub, _ := json.Marshal(struct {
				Items []json.RawMessage `json:"items"`
			}{items})
			wg.Add(1)
			go func(shard int, sub []byte) {
				defer wg.Done()
				replies <- shardReply{shard, rt.collect(ctx, br, shard, sub)}
			}(shard, sub)
		}
		wg.Wait()
		close(replies)

		degraded := false
		for rp := range replies {
			rt.mergeShardReply(results, shardIdx[rp.shard], shardItems[rp.shard], rp.out, &degraded)
		}

		key, gen := rt.majority()
		if key != "" {
			w.Header().Set("X-Cold-Model", key)
		}
		envelope.WriteJSON(w, http.StatusOK, struct {
			Results    []json.RawMessage `json:"results"`
			Generation uint64            `json:"generation"`
			ModelKey   string            `json:"model_key,omitempty"`
			Degraded   bool              `json:"degraded"`
		}{results, gen, key, degraded})
		rt.cfg.Metrics.forwarded(time.Since(start).Seconds())
	}
}

// mergeShardReply scatters one shard's outcome back into the merged
// result slots: relayed per-item payloads on success, the replica's
// error on every item for a terminal failure, and degraded or shed
// per-item answers when the shard produced nothing.
func (rt *Router) mergeShardReply(results []json.RawMessage, idx []int, items []json.RawMessage, out forwardOutcome, degraded *bool) {
	if out.res != nil && out.res.status == http.StatusOK {
		var rep struct {
			Results  []json.RawMessage `json:"results"`
			Degraded bool              `json:"degraded"`
		}
		if err := json.Unmarshal(out.res.body, &rep); err == nil && len(rep.Results) == len(idx) {
			for j, i := range idx {
				results[i] = rep.Results[j]
			}
			if rep.Degraded {
				*degraded = true
			}
			return
		}
		for _, i := range idx {
			results[i] = errorItem("internal", "malformed replica batch reply")
		}
		return
	}
	if out.res != nil {
		// Terminal non-200 (replica-side reject): surface the replica's
		// envelope error on every item of the sub-batch.
		var eb envelope.Body
		code, msg := "internal", fmt.Sprintf("replica answered %d", out.res.status)
		if err := json.Unmarshal(out.res.body, &eb); err == nil && eb.Error.Code != "" {
			code, msg = eb.Error.Code, eb.Error.Message
		}
		for _, i := range idx {
			results[i] = errorItem(code, msg)
		}
		return
	}
	// No replica answered: per-item degraded fallback where possible,
	// the shed verdict otherwise.
	for j, i := range idx {
		if it, res, ok := rt.fallbackScore(items[j], ""); ok {
			slot := serve.Slot(it.Kind, &res, it.TopN)
			slot.ModelKey, slot.Degraded = fallbackModelKey, true
			results[i], _ = json.Marshal(slot)
			*degraded = true
			continue
		}
		results[i] = errorItem(out.code, out.msg)
	}
}

// rank forwards GET /v1/rank/{user} to the shard owning the user. The
// popularity-prior fallback has no community rankings, so an unusable
// shard sheds rather than degrades.
func (rt *Router) rank() http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if rt.draining.Load() {
			envelope.WriteError(w, http.StatusServiceUnavailable, "draining", "router is draining")
			return
		}
		rt.cfg.Metrics.request("rank")
		rt.budget.earn()
		user, err := strconv.Atoi(req.PathValue("user"))
		if err != nil || user < 0 {
			envelope.WriteError(w, http.StatusBadRequest, "bad_request", "bad user path segment")
			return
		}
		path := "/v1/rank/" + strconv.Itoa(user)
		if k := req.URL.Query().Get("k"); k != "" {
			path += "?k=" + url.QueryEscape(k)
		}
		shard := ShardOf(user, len(rt.shards))
		rr := route{name: "rank", method: http.MethodGet, path: path}
		stampPriority(req, &rr)
		start := time.Now()
		rt.forward(w, req, rr, shard, nil)
		rt.cfg.Metrics.forwarded(time.Since(start).Seconds())
	}
}

// attemptResult is the outcome of one forwarded attempt.
type attemptResult struct {
	rep      *replica
	terminal bool // a response to hand to the client (2xx valid, or any 4xx)
	skew     bool // 2xx discarded for model-key mismatch; not a shard fault
	pressure bool // deliberate overload shed (brownout 503); not a shard fault
	status   int
	header   http.Header
	body     []byte
	err      error
}

// forwardOutcome is what the hardened forward path produced for one
// shard: a terminal replica response to relay, or (res == nil) the shed
// verdict — how long the client should wait, and why.
type forwardOutcome struct {
	res  *attemptResult
	key  string // pinned majority model key
	wait time.Duration
	code string
	msg  string
}

// forward drives the hardened forwarding path and writes the result:
// terminal responses are relayed, everything else degrades or sheds.
func (rt *Router) forward(w http.ResponseWriter, req *http.Request, r route, shard int, body []byte) {
	ctx, cancel := rt.forwardCtx(req)
	defer cancel()
	out := rt.collect(ctx, r, shard, body)
	if out.res != nil {
		rt.writeForwarded(w, out.res, out.key)
		return
	}
	rt.degradeOrShed(w, r, body, out.wait, out.code, out.msg)
}

// collect is the write-free core of forward: breaker check, replica
// selection pinned to the fleet-majority model generation, budgeted
// retries with full-jitter backoff, and optional hedging. The batch
// fan-out calls it once per shard and merges outcomes itself.
func (rt *Router) collect(ctx context.Context, r route, shard int, body []byte) forwardOutcome {
	br := rt.breakers[shard]
	if ok, wait := br.allow(); !ok {
		rt.cfg.Metrics.breakerShedOne()
		return forwardOutcome{wait: wait, code: "breaker_open",
			msg: fmt.Sprintf("shard %d circuit breaker is open", shard)}
	}

	key, _ := rt.majority()
	tried := make(map[*replica]bool, rt.cfg.MaxAttempts)
	succeeded := false
	defer func() {
		if succeeded {
			br.onSuccess()
		} else {
			br.onFailure()
		}
	}()

	for attempt := 0; attempt < rt.cfg.MaxAttempts; attempt++ {
		if ctx.Err() != nil {
			break
		}
		// First attempts of interactive traffic prefer L0 replicas; a
		// retry must respect receiver pressure and never lands on a
		// replica reporting L3+ (it would only deepen the brownout).
		rep := rt.pick(shard, key, tried, pickOpts{
			preferCalm: r.tier == overload.TierInteractive,
			skipHot:    attempt > 0,
		})
		if rep == nil {
			break
		}
		tried[rep] = true
		if attempt > 0 {
			if !rt.budget.take() {
				rt.cfg.Metrics.budgetExhausted()
				break
			}
			rt.cfg.Metrics.retried()
			if !sleepCtx(ctx, rt.backoff(attempt)) {
				break
			}
		}
		res := rt.attemptMaybeHedged(ctx, rep, r, shard, key, body, tried)
		if res.terminal {
			// A pressure shed (brownout 503) is a deliberate verdict from
			// a live replica, not a shard fault: relay it breaker-neutral.
			succeeded = res.status < 500 || res.pressure
			return forwardOutcome{res: res, key: key}
		}
		if res.skew {
			// The replica is healthy, just on another generation; don't
			// let skew open the shard breaker.
			succeeded = true
		}
	}

	return forwardOutcome{wait: rt.cfg.RetryAfterHint, code: "no_replicas",
		msg: fmt.Sprintf("no usable replica for shard %d", shard)}
}

// pickOpts shapes replica selection around receiver pressure.
type pickOpts struct {
	// preferCalm makes a first pass over brownout-L0 replicas before
	// accepting a browned-out one; interactive traffic sets it so the
	// least-degraded replica answers when the pool is split.
	preferCalm bool
	// skipHot refuses replicas reporting hotBrownoutLevel or deeper
	// outright. Retries and hedges set it: extra attempts must not be
	// pushed into a replica that is already shedding load.
	skipHot bool
}

// pick selects the next eligible replica of shard via round robin:
// in rotation, not draining, on the pinned model key (when one is
// known), past or inside its slow-start ramp, not already tried, and
// within opts' brownout bounds.
func (rt *Router) pick(shard int, key string, tried map[*replica]bool, opts pickOpts) *replica {
	if opts.preferCalm {
		if rep := rt.pickPass(shard, key, tried, 0); rep != nil {
			return rep
		}
	}
	maxBrownout := overload.MaxLevel
	if opts.skipHot {
		maxBrownout = hotBrownoutLevel - 1
	}
	return rt.pickPass(shard, key, tried, maxBrownout)
}

// pickPass is one round-robin sweep accepting replicas whose reported
// brownout level is at most maxBrownout.
func (rt *Router) pickPass(shard int, key string, tried map[*replica]bool, maxBrownout int) *replica {
	pool := rt.shards[shard]
	n := len(pool)
	off := int(rt.rr[shard].Add(1))
	for i := 0; i < n; i++ {
		rep := pool[(off+i)%n]
		if tried[rep] {
			continue
		}
		st := rep.snapshot()
		if !st.up || st.draining {
			continue
		}
		if st.brownout > maxBrownout {
			continue // browned out beyond what this pass accepts
		}
		if key != "" && st.key != "" && st.key != key {
			continue // lagging generation; skew guard keeps it out
		}
		if !st.readmitted.IsZero() {
			frac := float64(time.Since(st.readmitted)) / float64(rt.cfg.SlowStart)
			if frac < 1 && rt.rng.Float64() > frac {
				continue // slow-start: admit proportionally to warm-up
			}
		}
		return rep
	}
	return nil
}

// attemptMaybeHedged runs one attempt, racing a hedge against it when
// configured: if the primary has not answered within HedgeAfter and the
// budget allows, a second replica gets the same request, the first
// usable response wins, and the loser's context is cancelled.
func (rt *Router) attemptMaybeHedged(ctx context.Context, rep *replica, r route, shard int, key string, body []byte, tried map[*replica]bool) *attemptResult {
	if rt.cfg.HedgeAfter <= 0 {
		return rt.attemptOne(ctx, rep, r, key, body)
	}
	pctx, cancelP := context.WithCancel(ctx)
	defer cancelP()
	results := make(chan *attemptResult, 2)
	go func() { results <- rt.attemptOne(pctx, rep, r, key, body) }()

	timer := time.NewTimer(rt.cfg.HedgeAfter)
	select {
	case res := <-results:
		timer.Stop()
		return res
	case <-timer.C:
	}

	// A hedge is speculative extra load; like a retry it never lands on
	// a replica that reports L3+ pressure.
	hedge := rt.pick(shard, key, tried, pickOpts{
		preferCalm: r.tier == overload.TierInteractive,
		skipHot:    true,
	})
	if hedge == nil || !rt.budget.take() {
		if hedge == nil {
			// No second replica to hedge onto; wait out the primary.
			return <-results
		}
		rt.cfg.Metrics.budgetExhausted()
		return <-results
	}
	tried[hedge] = true
	rt.cfg.Metrics.hedged()
	faultinject.Fire(faultinject.ClusterHedge, r.name, hedge.url)
	hctx, cancelH := context.WithCancel(ctx)
	defer cancelH()
	go func() { results <- rt.attemptOne(hctx, hedge, r, key, body) }()

	first := <-results
	if first.terminal {
		if first.rep == hedge {
			rt.cfg.Metrics.hedgeWon()
		}
		cancelP()
		cancelH()
		return first
	}
	second := <-results
	if second.terminal && second.rep == hedge {
		rt.cfg.Metrics.hedgeWon()
	}
	if second.terminal || first.skew {
		return second
	}
	return first
}

// attemptOne forwards the request body to one replica and classifies
// the outcome. 2xx responses are checked against the pinned model key;
// a mismatch (the replica reloaded between our probe and this request)
// is discarded as generation skew rather than handed to the client.
func (rt *Router) attemptOne(ctx context.Context, rep *replica, r route, key string, body []byte) *attemptResult {
	res := &attemptResult{rep: rep}
	var injected error
	faultinject.Fire(faultinject.ClusterForward, r.name, rep.url, &injected)
	if injected != nil {
		res.err = injected
		rt.noteAttemptFailure(rep, injected.Error())
		return res
	}
	actx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	method := r.method
	if method == "" {
		method = http.MethodPost
	}
	req, err := http.NewRequestWithContext(actx, method, rep.url+r.path, bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(overload.DeadlineHeader, strconv.FormatInt(time.Until(dl).Milliseconds(), 10))
	}
	if r.priority != "" {
		req.Header.Set(overload.PriorityHeader, r.priority)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		res.err = err
		// A cancelled attempt carries no verdict on the replica: the
		// hedge won, or the client went away. Only real failures feed
		// the passive ejection counter.
		if !errors.Is(err, context.Canceled) {
			rt.noteAttemptFailure(rep, err.Error())
		}
		return res
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		res.err = err
		rt.noteAttemptFailure(rep, err.Error())
		return res
	}
	res.status, res.header, res.body = resp.StatusCode, resp.Header, raw

	switch {
	case resp.StatusCode >= 500:
		if code := envelope.CodeOf(raw); code == "brownout" || code == "deadline_unmeetable" {
			// A deliberate pressure shed: the replica answered fast, from
			// under load, with a verdict — it is not failing, and retrying
			// into the heat would only deepen it. Relay the shed to the
			// client, breaker- and ejection-neutral.
			if code == "brownout" {
				rep.notePressure(hotBrownoutLevel)
			} else {
				rep.notePressure(0)
			}
			rt.cfg.Metrics.pressureRelayed()
			res.terminal, res.pressure = true, true
			return res
		}
		res.err = fmt.Errorf("replica %s answered %d", rep.url, resp.StatusCode)
		rt.noteAttemptFailure(rep, res.err.Error())
		return res
	case resp.StatusCode >= 400:
		// The request itself is bad (or misrouted, or shed): the replica
		// is healthy and the client must see the answer unchanged.
		rep.noteTrafficOK(0, "")
		res.terminal = true
		return res
	}

	var envl struct {
		Generation uint64 `json:"generation"`
		ModelKey   string `json:"model_key"`
	}
	_ = json.Unmarshal(raw, &envl)
	rep.noteTrafficOK(envl.Generation, envl.ModelKey)
	if key != "" && envl.ModelKey != "" && envl.ModelKey != key {
		rt.cfg.Metrics.skewDiscarded()
		res.skew = true
		res.err = fmt.Errorf("replica %s answered from generation %q, request pinned to %q",
			rep.url, envl.ModelKey, key)
		return res
	}
	res.terminal = true
	return res
}

// noteAttemptFailure feeds passive failure accounting from live traffic.
func (rt *Router) noteAttemptFailure(rep *replica, msg string) {
	if rep.noteFailure(rt.cfg.EjectAfter, msg) {
		rt.cfg.Metrics.ejected()
		rt.cfg.Logf("cluster: ejected replica %s (shard %d) on traffic failures: %s", rep.url, rep.shard, msg)
	}
}

// writeForwarded copies a terminal replica response to the client,
// stamping the shard, replica and pinned model key for debuggability.
func (rt *Router) writeForwarded(w http.ResponseWriter, res *attemptResult, key string) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-Cold-Shard", strconv.Itoa(res.rep.shard))
	w.Header().Set("X-Cold-Replica", res.rep.url)
	if key != "" {
		w.Header().Set("X-Cold-Model", key)
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// backoff returns the full-jitter delay before retry number attempt
// (1-based): uniform in (0, min(RetryMax, RetryBase·2^(attempt-1))].
func (rt *Router) backoff(attempt int) time.Duration {
	d := float64(rt.cfg.RetryBase)
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= float64(rt.cfg.RetryMax) {
			d = float64(rt.cfg.RetryMax)
			break
		}
	}
	return time.Duration(d * rt.rng.Float64())
}

// sleepCtx sleeps d unless ctx finishes first; false means it did.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// ---- degraded fallback ----

// degradeOrShed is the end of the line: answer a single-score route from
// the fallback engine (marked degraded) when one is configured and can
// score the request, else shed with a jittered Retry-After.
func (rt *Router) degradeOrShed(w http.ResponseWriter, r route, body []byte, wait time.Duration, code, msg string) {
	if r.kind != "" {
		if it, res, ok := rt.fallbackScore(body, r.kind); ok {
			w.Header().Set("X-Cold-Model", fallbackModelKey)
			envelope.WriteJSON(w, http.StatusOK, serve.Single(it.Kind, &res, it.TopN, 0, fallbackModelKey, true))
			return
		}
	}
	if rt.cfg.Fallback == nil {
		rt.cfg.Metrics.proxyError()
	}
	if wait <= 0 {
		wait = rt.cfg.RetryAfterHint
	}
	// Jitter the hint ±50% so shed clients spread their comebacks.
	wait = time.Duration(float64(wait) * (0.5 + rt.rng.Float64()))
	envelope.WriteShed(w, http.StatusServiceUnavailable, code, msg, wait)
}

// fallbackScore answers one item locally from the fallback engine:
// raw is a batch item, or a single-route body when kind is set. The
// item is validated by the replicas' own Build. false means it cannot
// be answered at all (no fallback, invalid item, topics kind).
func (rt *Router) fallbackScore(raw []byte, kind serve.Kind) (*serve.ScoreItem, serve.ScoreResult, bool) {
	eng := rt.cfg.Fallback
	if eng == nil {
		return nil, serve.ScoreResult{}, false
	}
	var it serve.ScoreItem
	if err := json.Unmarshal(raw, &it); err != nil {
		return nil, serve.ScoreResult{}, false
	}
	if kind != "" {
		it.Kind = kind
	}
	sc := serve.Scope{Info: eng.Info()}
	if posts := rt.cfg.Posts; posts != nil {
		sc.Post = func(p int) (text.BagOfWords, error) {
			if b, ok := posts(p); ok {
				return b, nil
			}
			return text.BagOfWords{}, errNoPost
		}
	}
	req, ei := it.Build(&sc)
	if ei != nil {
		return nil, serve.ScoreResult{}, false
	}
	res := eng.ScoreBatch(context.Background(), []serve.ScoreRequest{req})[0]
	if res.Err != nil {
		return nil, serve.ScoreResult{}, false
	}
	rt.cfg.Metrics.degradedAnswer()
	return &it, res, true
}

var errNoPost = errors.New("post not found")

// fallbackModelKey marks router-local degraded answers; it matches the
// key replicas report while serving from their own fallback engine.
const fallbackModelKey = "fallback"

// ---- status and liveness ----

// ReplicaStatus is one replica's externally visible state.
type ReplicaStatus struct {
	URL                 string `json:"url"`
	Up                  bool   `json:"up"`
	Draining            bool   `json:"draining,omitempty"`
	Degraded            bool   `json:"degraded,omitempty"`
	Lagging             bool   `json:"lagging,omitempty"`
	BrownoutLevel       int    `json:"brownout_level,omitempty"`
	Generation          uint64 `json:"generation"`
	ModelKey            string `json:"model_key,omitempty"`
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	LastError           string `json:"last_error,omitempty"`
}

// ShardStatus is one shard's pool and breaker state.
type ShardStatus struct {
	Index    int             `json:"index"`
	Breaker  string          `json:"breaker"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// StatusReply is the /v1/cluster/status body: the shard map a client
// library needs to understand the fleet, plus the router's own health.
type StatusReply struct {
	Shards             []ShardStatus `json:"shards"`
	MajorityModelKey   string        `json:"majority_model_key,omitempty"`
	MajorityGeneration uint64        `json:"majority_generation"`
	RetryBudgetTokens  float64       `json:"retry_budget_tokens"`
	UptimeS            float64       `json:"uptime_s"`
}

// Status assembles the live shard map.
func (rt *Router) Status() StatusReply {
	key, gen := rt.majority()
	reply := StatusReply{
		MajorityModelKey:   key,
		MajorityGeneration: gen,
		RetryBudgetTokens:  rt.budget.value(),
		UptimeS:            time.Since(rt.start).Seconds(),
	}
	for i, pool := range rt.shards {
		ss := ShardStatus{Index: i, Breaker: rt.breakers[i].current().String()}
		for _, rep := range pool {
			st := rep.snapshot()
			ss.Replicas = append(ss.Replicas, ReplicaStatus{
				URL: rep.url, Up: st.up, Draining: st.draining, Degraded: st.degraded,
				Lagging:       key != "" && st.key != "" && st.key != key,
				BrownoutLevel: st.brownout,
				Generation:    st.gen, ModelKey: st.key,
				ConsecutiveFailures: st.consecFails, LastError: st.lastErr,
			})
		}
		reply.Shards = append(reply.Shards, ss)
	}
	return reply
}

func (rt *Router) handleStatus(w http.ResponseWriter, _ *http.Request) {
	envelope.WriteJSON(w, http.StatusOK, rt.Status())
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status, code := "ok", http.StatusOK
	if rt.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	envelope.WriteJSON(w, code, struct {
		Status   string  `json:"status"`
		UptimeS  float64 `json:"uptime_s"`
		Draining bool    `json:"draining"`
		Shards   int     `json:"shards"`
	}{status, time.Since(rt.start).Seconds(), rt.draining.Load(), len(rt.shards)})
}

// lockedRand is a seeded, mutex-guarded rand source: the router jitters
// from many goroutines, and chaos tests need reproducible draws.
type lockedRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{r: rand.New(rand.NewSource(seed))}
}

func (l *lockedRand) Float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Float64()
}
