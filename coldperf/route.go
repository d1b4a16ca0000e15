package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/cold-diffusion/cold/internal/serve"
)

const (
	// Every checkEvery-th routed and every mixedCheckEvery-th mixed
	// response is checked bit for bit against the engine. The routed
	// check is sparser because its reference scoring shares the cores
	// with the saturating closed loop.
	checkEvery      = 97
	mixedCheckEvery = 16
	warmup          = 500 * time.Millisecond
)

// batchReply is the wire shape of a /v1/score/batch answer.
type batchReply struct {
	Results []struct {
		Status string   `json:"status"`
		Score  *float64 `json:"score"`
	} `json:"results"`
	Generation uint64 `json:"generation"`
}

// decodeReply parses a batch answer and fails it unless every item is ok.
func decodeReply(raw []byte, n int) (*batchReply, error) {
	var r batchReply
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, err
	}
	if len(r.Results) != n {
		return nil, fmt.Errorf("%d results for %d items", len(r.Results), n)
	}
	for i, it := range r.Results {
		if it.Status != "ok" || it.Score == nil {
			return nil, fmt.Errorf("item %d: status %q", i, it.Status)
		}
	}
	return &r, nil
}

// sameScores checks served scores bit for bit against engine.ScoreBatch
// on the same items.
func sameScores(in *inputs, eng serve.Engine, items []item, r *batchReply) error {
	ref := eng.ScoreBatch(context.Background(), in.requests(items))
	for i := range ref {
		if ref[i].Err != nil {
			return fmt.Errorf("reference item %d: %v", i, ref[i].Err)
		}
		if math.Float64bits(ref[i].Score) != math.Float64bits(*r.Results[i].Score) {
			return fmt.Errorf("item %d: served %v, engine %v", i, *r.Results[i].Score, ref[i].Score)
		}
	}
	return nil
}

// serveCounters is a snapshot of the serve.Metrics a stage reads: cache
// outcomes, and items scored against batch requests admitted.
type serveCounters struct{ hits, misses, batches, batchItems float64 }

func countersOf(reps []*replica) serveCounters {
	var c serveCounters
	for _, r := range reps {
		c.hits += float64(r.met.CacheHits.Value())
		c.misses += float64(r.met.CacheMisses.Value())
		c.batches += r.series(`cold_serve_requests_total{route="batch"}`)
		c.batchItems += float64(r.met.BatchItems.Value())
	}
	return c
}

func (c serveCounters) minus(o serveCounters) serveCounters {
	return serveCounters{c.hits - o.hits, c.misses - o.misses, c.batches - o.batches, c.batchItems - o.batchItems}
}

func (c serveCounters) hitShare() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return c.hits / (c.hits + c.misses)
}

// routed drives /v1/score/batch through the router with the Zipf stream.
// Each round is a saturation burst (a closed loop of nproc connections)
// followed by an open-loop window at the workload's fixed rate.
type routed struct {
	b       *bench
	d       *deployment
	conns   int
	client  *http.Client
	do      func(i int) error
	before  serveCounters
	sampler func() overloadSample
	closedP *phase
	openP   *phase

	mu      sync.Mutex
	checked int

	rates       []float64
	open, plain loop // traced and (in a traced run) untraced windows
}

// newRouted warms the routed path up: every distinct tuple once, so the
// cache holds the whole stream and the timed rounds see no fill trend,
// then a short closed loop for the connection pools and the heap. The
// reference engine is shard 0's snapshot; both replicas serve the same
// model file.
func (b *bench) newRouted(in *inputs, d *deployment) *routed {
	rt := &routed{b: b, d: d, conns: runtime.NumCPU()}
	rt.client = newClient(rt.conns)
	client := rt.client
	url := d.router.url + "/v1/score/batch"
	ref := d.routed[0].mgr.Current()
	send := func(body []byte, n int, check bool) error {
		id := b.tr.newID()
		start := time.Now()
		raw, err := post(client, url, body, id)
		b.tr.record(id, "route", "client", start, time.Now())
		if err != nil {
			return err
		}
		r, err := decodeReply(raw, n)
		if err != nil {
			return err
		}
		if r.Generation != ref.Generation {
			return fmt.Errorf("served generation %d, want %d", r.Generation, ref.Generation)
		}
		if check {
			items, err := itemsOf(body)
			if err == nil {
				err = sameScores(in, ref.Engine, items, r)
			}
			if err != nil {
				b.fail("routed score differs from the engine: %v", err)
			}
			rt.mu.Lock()
			rt.checked++
			rt.mu.Unlock()
		}
		return nil
	}
	rt.do = func(i int) error { return send(in.routed[i%len(in.routed)], batchItems, i%checkEvery == 0) }

	rt.sampler = b.sampleOverload(d.routed)
	warm := b.phase("route-warmup")
	for i, body := range in.warm {
		warm.note(send(body, min(batchItems, routeDistinct-i*batchItems), true))
	}
	closedLoop(rt.conns, warmup, warm, rt.do)
	rt.before = countersOf(d.routed)
	rt.closedP, rt.openP = b.phase("route-closed"), b.phase("route-open")
	return rt
}

// round runs one saturation burst and one open-loop window. In a traced
// run the window is split into a traced and an untraced half, the
// baseline of the tracing overhead; which half goes first alternates with
// the round, so neither half always follows the same stage.
func (rt *routed) round(r int) {
	b := rt.b
	c := closedLoop(rt.conns, b.window(closedShare)/rounds, rt.closedP, rt.do)
	rt.rates = append(rt.rates, float64(len(c.samples)*batchItems)/c.span)
	window := b.window(openShare) / rounds
	if !b.trace {
		rt.open.add(openLoop(routeRate, rt.conns, window, rt.openP, rt.do))
		return
	}
	for half := 0; half < 2; half++ {
		traced := (r+half)%2 == 0
		b.tr.on.Store(traced)
		o := openLoop(routeRate, rt.conns, window/2, rt.openP, rt.do)
		if traced {
			rt.open.add(o)
		} else {
			rt.plain.add(o)
		}
	}
	b.tr.on.Store(true)
}

// finish reports the routed figures.
func (rt *routed) finish() {
	b := rt.b
	rt.client.CloseIdleConnections()
	delta := countersOf(rt.d.routed).minus(rt.before)
	ov := rt.sampler()
	b.e2e("route_items_per_s", "items/s", b.overRounds("route_items_per_s", rt.rates))
	b.e2e("route_p50_ms", "ms", b.overRounds("route_p50_ms", rt.open.perRound(p50)))
	b.extra["route_p90_ms"] = mean(rt.open.perRound(p90))
	b.extra["route_p99_ms"] = mean(rt.open.perRound(p99))
	b.lateness("route", &rt.open)
	if rt.checked == 0 {
		b.fail("no routed response was checked against the engine")
	}
	b.extra["route_checked_responses"] = float64(rt.checked)
	if !b.trace {
		return
	}
	b.layer("serve.cache_hit_share", "ratio", delta.hitShare())
	b.layer("serve.batch_size_mean", "items", delta.batchItems/math.Max(delta.batches, 1))
	b.layer("overload.queued_max", "count", float64(ov.queuedMax))
	b.layer("overload.limit_min", "count", float64(ov.limitMin))
	b.layer("overload.sheds", "count", float64(ov.sheds))
	h := b.tr.byLayer("route", "replica")
	b.layer("serve.handler_p50_ms", "ms", quantile(h, 0.5))
	b.layer("serve.handler_p99_ms", "ms", quantile(h, 0.99))
	// The overhead compares the traced and untraced halves of the same
	// rounds, each averaged over rounds.
	tr50, pl50 := mean(rt.open.perRound(p50)), mean(rt.plain.perRound(p50))
	tr90, pl90 := mean(rt.open.perRound(p90)), mean(rt.plain.perRound(p90))
	b.extra["route_p50_ms_untraced"] = pl50
	b.extra["route_p90_ms_untraced"] = pl90
	b.layer("trace.route_p50_overhead_ms", "ms", tr50-pl50)
	b.layer("trace.route_p90_overhead_ms", "ms", tr90-pl90)
}

// window is share of the run's measured seconds.
func (b *bench) window(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

func p50(w []sample) float64 { return quantile(lats(w), 0.5) }
func p90(w []sample) float64 { return quantile(lats(w), 0.9) }
func p99(w []sample) float64 { return quantile(lats(w), 0.99) }

// lateness records how late an open loop's generator sent, p50 and p99
// over the whole phase, and the whole-phase latency quantiles beside the
// per-round ones.
func (b *bench) lateness(name string, l *loop) {
	late := make([]float64, len(l.samples))
	for i, s := range l.samples {
		late[i] = s.late
	}
	b.extra[name+"_lateness_p50_ms"] = quantile(late, 0.5)
	b.extra[name+"_lateness_p99_ms"] = quantile(late, 0.99)
	b.extra[name+"_whole_p50_ms"] = p50(l.samples)
	b.extra[name+"_whole_p99_ms"] = p99(l.samples)
	b.extra[name+"_whole_p90_ms"] = p90(l.samples)
	b.extra[name+"_samples"] = float64(len(l.samples))
	if b.trace {
		b.layer("loadgen."+name+"_lateness_p99_ms", "ms", quantile(late, 0.99))
	}
}

// overloadSample is what sampling the replicas' admission controllers saw.
type overloadSample struct {
	queuedMax, limitMin int
	sheds               uint64
}

// sampleOverload polls every replica's overload.Controller every 5 ms in
// traced runs until the returned stop function is called.
func (b *bench) sampleOverload(reps []*replica) func() overloadSample {
	if !b.trace {
		return func() overloadSample { return overloadSample{} }
	}
	shedsNow := func() uint64 {
		var n uint64
		for _, r := range reps {
			for _, v := range r.srv.Overload().Stats().Sheds {
				n += v
			}
		}
		return n
	}
	base := shedsNow()
	out := overloadSample{limitMin: math.MaxInt}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			for _, r := range reps {
				st := r.srv.Overload().Stats()
				out.queuedMax = max(out.queuedMax, st.Queued)
				out.limitMin = min(out.limitMin, st.Limit)
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() overloadSample {
		close(stop)
		<-done
		out.sheds = shedsNow() - base
		return out
	}
}
