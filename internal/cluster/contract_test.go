package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/cold-diffusion/cold/internal/cluster"
	"github.com/cold-diffusion/cold/internal/core"
	"github.com/cold-diffusion/cold/internal/corpus"
	"github.com/cold-diffusion/cold/internal/ingest"
	"github.com/cold-diffusion/cold/internal/serve"
	"github.com/cold-diffusion/cold/internal/stats"
	"github.com/cold-diffusion/cold/internal/synth"
	"github.com/cold-diffusion/cold/internal/text"
)

// TestWireContract pins the /v1 scoring wire format end to end: for
// each of the four single routes and /v1/score/batch — on a healthy
// replica, a fallback-degraded replica, a sharded replica, and through
// the router (forwarded, router-fallback degraded, shed, breaker-shed)
// — the HTTP status, the complete decoded JSON body (every key, scores
// compared bit for bit), and whether Retry-After is present. It also
// pins the 404/405 envelope of the replica, the router and the ingest
// server, and every input-validation failure as a single route and as
// a batch item. Bodies are compared as generic JSON, so an added or a
// dropped key fails the test just like a changed value.
func TestWireContract(t *testing.T) {
	fx := newContractFixture(t)
	for _, c := range fx.cases() {
		t.Run(c.name, func(t *testing.T) {
			if c.prime != nil {
				c.prime()
			}
			status, hdr, body := call(t, c.base, c.method, c.path, c.body)
			if status != c.status {
				t.Fatalf("status %d, want %d; body %s", status, c.status, mustJSON(body))
			}
			if err := match("$", c.want, body); err != nil {
				t.Fatalf("body mismatch: %v\n got: %s\nwant: %s", err, mustJSON(body), mustJSON(c.want))
			}
			if got := hdr.Get("Retry-After") != ""; got != c.retryAfter {
				t.Fatalf("Retry-After present = %v, want %v", got, c.retryAfter)
			}
		})
	}
}

// contractCase is one request and the exact response it must get.
type contractCase struct {
	name         string
	base         string
	method, path string
	body         string
	prime        func() // runs before the request (e.g. opens a breaker)
	status       int
	want         any
	retryAfter   bool
}

// positive matches any JSON number > 0: jittered retry hints.
type positive struct{}

type contractFixture struct {
	t    *testing.T
	data *corpus.Dataset
	m    *core.Model

	healthy  *serve.Snapshot // snapshot behind the healthy replica
	fallback serve.Engine

	replica, degraded, sharded, notReady  string // replica base URLs
	routed, routedFallback, shed, breaker string // router base URLs
	openBreaker                           func()
	ingest                                string
}

func newContractFixture(t *testing.T) *contractFixture {
	t.Helper()
	cfg := synth.Config{U: 40, C: 3, K: 3, T: 8, V: 120,
		PostsPerUser: 6, WordsPerPost: 5, LinksPerUser: 4, Seed: 7}
	data, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := core.DefaultConfig(cfg.C, cfg.K)
	mcfg.Iterations, mcfg.BurnIn, mcfg.Seed = 10, 5, 3
	m, err := core.Train(data, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	fb, err := core.NewFallbackPredictor(data)
	if err != nil {
		t.Fatal(err)
	}
	fx := &contractFixture{t: t, data: data, m: m, fallback: serve.NewFallbackEngine(fb)}

	loaded := func() *serve.Manager {
		mgr := serve.NewManager(serve.ManagerConfig{Path: path, TopComm: 3, Logf: t.Logf})
		if err := mgr.Reload(); err != nil {
			t.Fatal(err)
		}
		return mgr
	}
	replica := func(cfg serve.Config, mgr *serve.Manager, data *corpus.Dataset) string {
		cfg.Logf = t.Logf
		ts := httptest.NewServer(serve.New(cfg, mgr, data).Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}

	healthyMgr := loaded()
	fx.healthy = healthyMgr.Current()
	fx.replica = replica(serve.Config{}, healthyMgr, data)

	degradedMgr := serve.NewManager(serve.ManagerConfig{
		Path: filepath.Join(t.TempDir(), "absent.json"), TopComm: 3, Logf: t.Logf})
	degradedMgr.SetFallback(fx.fallback)
	fx.degraded = replica(serve.Config{}, degradedMgr, data)

	fx.sharded = replica(serve.Config{ShardIndex: 0, ShardCount: 2,
		ShardOwner: func(u int) bool { return u%2 == 0 }}, loaded(), data)

	fx.notReady = replica(serve.Config{}, serve.NewManager(serve.ManagerConfig{
		Path: filepath.Join(t.TempDir(), "absent.json"), Logf: t.Logf}), nil)

	// A replica URL nothing listens on: every forward is refused.
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()

	posts := func(p int) (text.BagOfWords, bool) {
		if p < 0 || p >= len(data.Posts) {
			return text.BagOfWords{}, false
		}
		return data.Posts[p].Words, true
	}
	router := func(rcfg cluster.Config) (*cluster.Router, string) {
		rcfg.RequestTimeout = 2 * time.Second
		rcfg.ProbeEvery, rcfg.ProbeTimeout = time.Hour, 500*time.Millisecond
		rcfg.Logf = t.Logf
		rt, err := cluster.New(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		rt.ProbeAll(context.Background())
		ts := httptest.NewServer(rt.Handler())
		t.Cleanup(ts.Close)
		return rt, ts.URL
	}
	_, fx.routed = router(cluster.Config{Shards: [][]string{{fx.replica}}})
	// BreakerFailures is out of reach in the shed legs so every request
	// gets the same no_replicas verdict regardless of case order.
	_, fx.routedFallback = router(cluster.Config{Shards: [][]string{{gone.URL}},
		Fallback: fx.fallback, Posts: posts, BreakerFailures: 1 << 20})
	_, fx.shed = router(cluster.Config{Shards: [][]string{{gone.URL}}, BreakerFailures: 1 << 20})
	_, fx.breaker = router(cluster.Config{Shards: [][]string{{gone.URL}},
		BreakerFailures: 1, BreakerCooldown: time.Hour})
	fx.openBreaker = func() {
		call(t, fx.breaker, "POST", "/v1/predict/link", `{"from":0,"to":1}`)
	}

	ing, _, err := ingest.New(ingest.Config{WALDir: t.TempDir(), Base: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		ing.Drain(ctx)
	})
	its := httptest.NewServer(ingest.NewServer(ing, t.Logf).Handler())
	t.Cleanup(its.Close)
	fx.ingest = its.URL
	return fx
}

// score runs one item on an engine directly: the reference every wire
// answer is compared against.
func score(t *testing.T, eng serve.Engine, req serve.ScoreRequest) serve.ScoreResult {
	t.Helper()
	res := eng.ScoreBatch(context.Background(), []serve.ScoreRequest{req})[0]
	if res.Err != nil {
		t.Fatalf("reference %+v: %v", req, res.Err)
	}
	return res
}

func topTopics(post []float64, n int) []any {
	out := []any{}
	for _, k := range stats.ArgTopK(post, n) {
		out = append(out, map[string]any{"topic": k, "weight": post[k]})
	}
	return out
}

func errBody(code, msg string) map[string]any {
	return map[string]any{"error": map[string]any{"code": code, "message": msg}}
}

func shedBody(code, msg string) map[string]any {
	return map[string]any{"error": map[string]any{"code": code, "message": msg, "retry_after_ms": positive{}}}
}

func errSlot(code, msg string) map[string]any {
	return map[string]any{"status": "error", "error": map[string]any{"code": code, "message": msg}}
}

// The canonical queries, as single-route bodies; a batch item adds kind.
const (
	qRetweet = `"publisher":0,"candidate":2,"post":7`
	qWords   = `"publisher":4,"candidate":6,"words":[1,2,3,2]`
	qLink    = `"from":2,"to":1`
	qTime    = `"user":6,"post":20`
	qTopics  = `"user":4,"post":14,"topn":2`
)

func (fx *contractFixture) cases() []contractCase {
	t, d := fx.t, fx.data
	words := func(p int) text.BagOfWords { return d.Posts[p].Words }
	eng, gen, key := fx.healthy.Engine, fx.healthy.Generation, fx.healthy.Key

	rt := score(t, eng, serve.ScoreRequest{Kind: serve.KindRetweet, Publisher: 0, Candidate: 2, Words: words(7)}).Score
	rw := score(t, eng, serve.ScoreRequest{Kind: serve.KindRetweet, Publisher: 4, Candidate: 6,
		Words: text.NewBagOfWords([]int{1, 2, 3, 2})}).Score
	ln := score(t, eng, serve.ScoreRequest{Kind: serve.KindLink, From: 2, To: 1}).Score
	sl := score(t, eng, serve.ScoreRequest{Kind: serve.KindTime, User: 6, Words: words(20)}).Slice
	tp := topTopics(score(t, eng, serve.ScoreRequest{Kind: serve.KindTopics, User: 4, Words: words(14)}).Topics, 2)

	fb := fx.fallback
	frt := score(t, fb, serve.ScoreRequest{Kind: serve.KindRetweet, Publisher: 0, Candidate: 2, Words: words(7)}).Score
	fln := score(t, fb, serve.ScoreRequest{Kind: serve.KindLink, From: 2, To: 1}).Score
	fsl := score(t, fb, serve.ScoreRequest{Kind: serve.KindTime, User: 6, Words: words(20)}).Slice

	single := func(kv ...any) map[string]any {
		out := map[string]any{}
		for i := 0; i < len(kv); i += 2 {
			out[kv[i].(string)] = kv[i+1]
		}
		return out
	}
	okBody := func(field string, v any) map[string]any {
		if field == "topics" {
			return single("topics", v, "generation", gen, "model_key", key)
		}
		return single(field, v, "generation", gen, "model_key", key, "degraded", false)
	}
	batchBody := func(g uint64, k string, degraded bool, slots ...any) map[string]any {
		b := single("results", slots, "generation", g, "degraded", degraded)
		if k != "" {
			b["model_key"] = k
		}
		return b
	}
	ok := func(kv ...any) map[string]any { return single(append([]any{"status", "ok"}, kv...)...) }
	item := func(kind, q string) string { return `{"kind":"` + kind + `",` + q + `}` }
	batch := func(items ...string) string { return `{"items":[` + strings.Join(items, ",") + `]}` }
	mixed := batch(item("retweet", qRetweet), item("retweet", qWords), item("link", qLink),
		item("time", qTime), item("topics", qTopics), `{"kind":"bogus","user":1}`)
	unknownKind := errSlot("bad_request", `unknown kind "bogus" (want retweet|link|time|topics)`)

	var cs []contractCase
	add := func(c contractCase) {
		if c.method == "" {
			c.method = "POST"
		}
		cs = append(cs, c)
	}

	// Healthy replica, and the same requests forwarded by the router:
	// a forwarded body is the replica's, byte for byte.
	for _, tgt := range []struct{ name, base string }{{"replica", fx.replica}, {"routed", fx.routed}} {
		p := tgt.name + "/"
		add(contractCase{name: p + "retweet", base: tgt.base, path: "/v1/predict/retweet",
			body: "{" + qRetweet + "}", status: 200, want: okBody("score", rt)})
		add(contractCase{name: p + "retweet-words", base: tgt.base, path: "/v1/predict/retweet",
			body: "{" + qWords + "}", status: 200, want: okBody("score", rw)})
		add(contractCase{name: p + "link", base: tgt.base, path: "/v1/predict/link",
			body: "{" + qLink + "}", status: 200, want: okBody("score", ln)})
		add(contractCase{name: p + "time", base: tgt.base, path: "/v1/predict/time",
			body: "{" + qTime + "}", status: 200, want: okBody("slice", sl)})
		add(contractCase{name: p + "topics", base: tgt.base, path: "/v1/topics",
			body: "{" + qTopics + "}", status: 200, want: okBody("topics", tp)})
		add(contractCase{name: p + "batch", base: tgt.base, path: "/v1/score/batch", body: mixed, status: 200,
			want: batchBody(gen, key, false, ok("score", rt), ok("score", rw), ok("score", ln),
				ok("slice", sl), ok("topics", tp), unknownKind)})
		add(contractCase{name: p + "batch-empty", base: tgt.base, path: "/v1/score/batch",
			body: `{"items":[]}`, status: 400, want: errBody("bad_request", "empty items")})
		add(contractCase{name: p + "not-found", base: tgt.base, method: "GET", path: "/v1/nope",
			status: 404, want: errBody("not_found", "no such endpoint")})
		add(contractCase{name: p + "method-not-allowed", base: tgt.base, method: "DELETE", path: "/v1/predict/retweet",
			status: 405, want: errBody("method_not_allowed", "method not allowed for this endpoint")})

		// Every input-validation failure, as a single route and as a
		// batch item.
		for _, v := range []struct{ name, q, msg string }{
			{"missing-publisher", `"candidate":1,"post":0`, "missing field publisher"},
			{"user-out-of-range", `"publisher":10000,"candidate":1,"post":0`, "publisher 10000 out of range [0,40)"},
			{"post-out-of-range", `"publisher":0,"candidate":1,"post":1073741824`,
				fmt.Sprintf("post 1073741824 out of range [0,%d)", len(d.Posts))},
			{"neither-post-nor-words", `"publisher":0,"candidate":1`, "need either post or words"},
			{"bad-word-id", `"publisher":0,"candidate":1,"words":[-4]`, fmt.Sprintf("word id -4 out of range [0,%d)", fx.m.V)},
			{"candidate-out-of-range", `"publisher":0,"candidate":40,"post":0`, "candidate 40 out of range [0,40)"},
			{"link-missing-to", `"from":0`, "missing field to"},
			{"time-missing-post", `"user":0`, "need either post or words"},
		} {
			path, kind := "/v1/predict/retweet", "retweet"
			if strings.HasPrefix(v.name, "link") {
				path, kind = "/v1/predict/link", "link"
			} else if strings.HasPrefix(v.name, "time") {
				path, kind = "/v1/predict/time", "time"
			}
			add(contractCase{name: p + "invalid/" + v.name, base: tgt.base, path: path,
				body: "{" + v.q + "}", status: 400, want: errBody("bad_request", v.msg)})
			add(contractCase{name: p + "invalid-item/" + v.name, base: tgt.base, path: "/v1/score/batch",
				body: batch(item(kind, v.q)), status: 200, want: batchBody(gen, key, false, errSlot("bad_request", v.msg))})
		}
		add(contractCase{name: p + "invalid/unknown-field", base: tgt.base, path: "/v1/predict/retweet",
			body: `{"publisher":0,"candidate":1,"post":0,"bogus":true}`, status: 400,
			want: errBody("bad_request", `bad request body: json: unknown field "bogus"`)})
		add(contractCase{name: p + "invalid/kind-on-single-route", base: tgt.base, path: "/v1/predict/retweet",
			body: `{"kind":"retweet","publisher":0,"candidate":1,"post":0}`, status: 400,
			want: errBody("bad_request", `bad request body: json: unknown field "kind"`)})
	}

	// The replica refuses a batch with an unknown item field whole; the
	// router, which only reads the routing view, forwards it and reports
	// the replica's refusal in the item's slot.
	unknownItem := batch(`{"kind":"retweet","publisher":0,"candidate":1,"post":0,"bogus":true}`)
	unknownMsg := `bad request body: json: unknown field "bogus"`
	add(contractCase{name: "replica/invalid-item/unknown-field", base: fx.replica, path: "/v1/score/batch",
		body: unknownItem, status: 400, want: errBody("bad_request", unknownMsg)})
	add(contractCase{name: "routed/invalid-item/unknown-field", base: fx.routed, path: "/v1/score/batch",
		body: unknownItem, status: 200, want: batchBody(gen, key, false, errSlot("bad_request", unknownMsg))})

	// A missing routing user: the replica names the field; the router
	// refuses before forwarding.
	add(contractCase{name: "replica/invalid/missing-candidate", base: fx.replica, path: "/v1/predict/retweet",
		body: `{"publisher":0,"post":0}`, status: 400, want: errBody("bad_request", "missing field candidate")})
	add(contractCase{name: "replica/invalid-item/missing-candidate", base: fx.replica, path: "/v1/score/batch",
		body: batch(`{"kind":"retweet","publisher":0,"post":0}`), status: 200,
		want: batchBody(gen, key, false, errSlot("bad_request", "missing field candidate"))})
	add(contractCase{name: "routed/invalid/missing-candidate", base: fx.routed, path: "/v1/predict/retweet",
		body: `{"publisher":0,"post":0}`, status: 400, want: errBody("bad_request", "missing field candidate")})
	add(contractCase{name: "routed/invalid/negative-user", base: fx.routed, path: "/v1/predict/time",
		body: `{"user":-3,"post":0}`, status: 400, want: errBody("bad_request", "user -3 out of range")})
	add(contractCase{name: "routed/invalid-item/missing-candidate", base: fx.routed, path: "/v1/score/batch",
		body: batch(`{"kind":"retweet","publisher":0,"post":0}`, `{"kind":"time","user":-3,"post":0}`), status: 200,
		want: batchBody(gen, key, false, errSlot("bad_request", "missing routing user field"),
			errSlot("bad_request", "routing user -3 out of range"))})

	// Fallback-degraded replica.
	fsnapGen := uint64(1) // SetFallback mints the first generation
	add(contractCase{name: "degraded/retweet", base: fx.degraded, path: "/v1/predict/retweet", body: "{" + qRetweet + "}",
		status: 200, want: single("score", frt, "generation", fsnapGen, "model_key", "fallback", "degraded", true)})
	add(contractCase{name: "degraded/link", base: fx.degraded, path: "/v1/predict/link", body: "{" + qLink + "}",
		status: 200, want: single("score", fln, "generation", fsnapGen, "model_key", "fallback", "degraded", true)})
	add(contractCase{name: "degraded/time", base: fx.degraded, path: "/v1/predict/time", body: "{" + qTime + "}",
		status: 200, want: single("slice", fsl, "generation", fsnapGen, "model_key", "fallback", "degraded", true)})
	add(contractCase{name: "degraded/topics", base: fx.degraded, path: "/v1/topics", body: "{" + qTopics + "}",
		status: 503, want: errBody("degraded", "topic posterior unavailable in degraded mode (no topic model loaded)")})
	add(contractCase{name: "degraded/batch", base: fx.degraded, path: "/v1/score/batch", body: mixed, status: 200,
		want: batchBody(fsnapGen, "fallback", true, ok("score", frt),
			ok("score", score(t, fb, serve.ScoreRequest{Kind: serve.KindRetweet, Publisher: 4, Candidate: 6}).Score),
			ok("score", fln), ok("slice", fsl), errSlot("degraded", serve.ErrDegraded.Error()), unknownKind)})

	// Replica with no model and no fallback.
	add(contractCase{name: "not-ready/retweet", base: fx.notReady, path: "/v1/predict/retweet",
		body: `{"publisher":0,"candidate":1,"words":[1]}`, status: 503, want: errBody("not_ready", "no model loaded")})
	add(contractCase{name: "not-ready/batch", base: fx.notReady, path: "/v1/score/batch",
		body: batch(item("link", qLink)), status: 503, want: errBody("not_ready", "no model loaded")})

	// Sharded replica: the routing user's owner answers, anyone else is
	// a misroute.
	add(contractCase{name: "sharded/retweet-owned", base: fx.sharded, path: "/v1/predict/retweet",
		body: "{" + qRetweet + "}", status: 200, want: okBody("score", rt)})
	for _, v := range []struct{ route, kind, q, msg string }{
		{"/v1/predict/retweet", "retweet", `"publisher":0,"candidate":1,"post":0`, "candidate 1 is not owned by shard 0/2"},
		{"/v1/predict/link", "link", `"from":3,"to":0`, "from 3 is not owned by shard 0/2"},
		{"/v1/predict/time", "time", `"user":5,"post":0`, "user 5 is not owned by shard 0/2"},
		{"/v1/topics", "topics", `"user":7,"post":0`, "user 7 is not owned by shard 0/2"},
	} {
		add(contractCase{name: "sharded/misrouted-" + v.kind, base: fx.sharded, path: v.route,
			body: "{" + v.q + "}", status: 421, want: errBody("wrong_shard", v.msg)})
		add(contractCase{name: "sharded/misrouted-item-" + v.kind, base: fx.sharded, path: "/v1/score/batch",
			body: batch(item(v.kind, v.q)), status: 200, want: batchBody(gen, key, false, errSlot("wrong_shard", v.msg))})
	}

	// Router with every replica gone, answering from its own fallback:
	// degraded answers where the prior can score, the shed otherwise.
	noReplicas := "no usable replica for shard 0"
	rf := fx.routedFallback
	add(contractCase{name: "router-fallback/retweet", base: rf, path: "/v1/predict/retweet", body: "{" + qRetweet + "}",
		status: 200, want: single("score", frt, "generation", 0, "model_key", "fallback", "degraded", true)})
	add(contractCase{name: "router-fallback/link", base: rf, path: "/v1/predict/link", body: "{" + qLink + "}",
		status: 200, want: single("score", fln, "generation", 0, "model_key", "fallback", "degraded", true)})
	add(contractCase{name: "router-fallback/time", base: rf, path: "/v1/predict/time", body: "{" + qTime + "}",
		status: 200, want: single("slice", fsl, "generation", 0, "model_key", "fallback", "degraded", true)})
	add(contractCase{name: "router-fallback/topics", base: rf, path: "/v1/topics", body: "{" + qTopics + "}",
		status: 503, want: shedBody("no_replicas", noReplicas), retryAfter: true})
	add(contractCase{name: "router-fallback/invalid", base: rf, path: "/v1/predict/retweet",
		body: `{"publisher":0,"candidate":1}`, status: 503, want: shedBody("no_replicas", noReplicas), retryAfter: true})
	fbSlot := func(field string, v any) map[string]any {
		return ok(field, v, "model_key", "fallback", "degraded", true)
	}
	add(contractCase{name: "router-fallback/batch", base: rf, path: "/v1/score/batch", body: mixed, status: 200,
		want: batchBody(0, "", true, fbSlot("score", frt),
			fbSlot("score", score(t, fb, serve.ScoreRequest{Kind: serve.KindRetweet, Publisher: 4, Candidate: 6}).Score),
			fbSlot("score", fln), fbSlot("slice", fsl),
			errSlot("no_replicas", noReplicas), errSlot("no_replicas", noReplicas))})
	add(contractCase{name: "router-fallback/rank", base: rf, method: "GET", path: "/v1/rank/3",
		status: 503, want: shedBody("no_replicas", noReplicas), retryAfter: true})

	// Router with every replica gone and no fallback: the shed verdict.
	for _, r := range []struct{ kind, path, q string }{
		{"retweet", "/v1/predict/retweet", qRetweet}, {"link", "/v1/predict/link", qLink},
		{"time", "/v1/predict/time", qTime}, {"topics", "/v1/topics", qTopics},
	} {
		add(contractCase{name: "router-shed/" + r.kind, base: fx.shed, path: r.path, body: "{" + r.q + "}",
			status: 503, want: shedBody("no_replicas", noReplicas), retryAfter: true})
	}
	add(contractCase{name: "router-shed/batch", base: fx.shed, path: "/v1/score/batch",
		body: batch(item("link", qLink), item("topics", qTopics)), status: 200,
		want: batchBody(0, "", false, errSlot("no_replicas", noReplicas), errSlot("no_replicas", noReplicas))})

	// Breaker open: shed before any forward.
	breakerMsg := "shard 0 circuit breaker is open"
	for _, r := range []struct{ kind, path, q string }{
		{"retweet", "/v1/predict/retweet", qRetweet}, {"link", "/v1/predict/link", qLink},
		{"time", "/v1/predict/time", qTime}, {"topics", "/v1/topics", qTopics},
	} {
		add(contractCase{name: "breaker/" + r.kind, base: fx.breaker, path: r.path, body: "{" + r.q + "}",
			prime: fx.openBreaker, status: 503, want: shedBody("breaker_open", breakerMsg), retryAfter: true})
	}
	add(contractCase{name: "breaker/batch", base: fx.breaker, path: "/v1/score/batch",
		body: batch(item("link", qLink), item("time", qTime)), prime: fx.openBreaker, status: 200,
		want: batchBody(0, "", false, errSlot("breaker_open", breakerMsg), errSlot("breaker_open", breakerMsg))})

	// 404/405 on the remaining surfaces.
	add(contractCase{name: "degraded/not-found", base: fx.degraded, method: "GET", path: "/v1/nope",
		status: 404, want: errBody("not_found", "no such endpoint")})
	add(contractCase{name: "router-fallback/method-not-allowed", base: rf, method: "GET", path: "/v1/score/batch",
		status: 405, want: errBody("method_not_allowed", "method not allowed for this endpoint")})
	add(contractCase{name: "ingest/not-found", base: fx.ingest, method: "GET", path: "/v1/nope",
		status: 404, want: errBody("not_found", "no such endpoint")})
	add(contractCase{name: "ingest/method-not-allowed", base: fx.ingest, method: "DELETE", path: "/v1/ingest",
		status: 405, want: errBody("method_not_allowed", "method not allowed for this endpoint")})
	return cs
}

// call does one round trip and decodes the body as generic JSON.
func call(t *testing.T, base, method, path, body string) (int, http.Header, any) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("%s %s: Content-Type %q, want application/json; body %q", method, path, ct, raw)
	}
	var decoded any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("%s %s: body %q does not decode: %v", method, path, raw, err)
	}
	return resp.StatusCode, resp.Header, decoded
}

// match compares a decoded JSON value against the expected one: same
// key sets at every level, numbers equal bit for bit, and positive{}
// accepting any positive number.
func match(path string, want, got any) error {
	switch w := want.(type) {
	case positive:
		if n, ok := got.(float64); !ok || !(n > 0) {
			return fmt.Errorf("%s: got %v, want a positive number", path, got)
		}
		return nil
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return fmt.Errorf("%s: got %T, want object", path, got)
		}
		if wk, gk := keys(w), keys(g); strings.Join(wk, ",") != strings.Join(gk, ",") {
			return fmt.Errorf("%s: keys %v, want %v", path, gk, wk)
		}
		for k, v := range w {
			if err := match(path+"."+k, v, g[k]); err != nil {
				return err
			}
		}
		return nil
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return fmt.Errorf("%s: got %v, want %d elements", path, got, len(w))
		}
		for i := range w {
			if err := match(fmt.Sprintf("%s[%d]", path, i), w[i], g[i]); err != nil {
				return err
			}
		}
		return nil
	case int:
		return match(path, float64(w), got)
	case uint64:
		return match(path, float64(w), got)
	case float64:
		if g, ok := got.(float64); !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("%s: got %v, want %v (bit for bit)", path, got, w)
		}
		return nil
	default:
		if got != want {
			return fmt.Errorf("%s: got %#v, want %#v", path, got, want)
		}
		return nil
	}
}

func keys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%#v", v)
	}
	return string(b)
}
