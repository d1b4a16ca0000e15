package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// idHeader carries the benchmark's request id across HTTP hops: the client
// sets it on the router's incoming request, the router middleware moves it
// into the request context, and the forwarding transport copies it from
// the context onto each forward, where the replica middleware reads it.
const idHeader = "X-Bench-Request"

type idKey struct{}

// span is one timed interval at a layer boundary. Spans of one request
// share ID; reloads have ID 0. Times are nanoseconds since the run began.
type span struct {
	ID    uint64 `json:"id"`
	Stage string `json:"stage"`
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them when the run ends. A nil
// *tracer records nothing, and on toggles recording so the traced run can
// also measure a leg with tracing off.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
	t.on.Store(true)
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// newID returns a request id, or 0 when tracing is off.
func (t *tracer) newID() uint64 {
	if !t.enabled() {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) record(id uint64, stage, layer string, start, end time.Time) {
	if !t.enabled() {
		return
	}
	s := span{ID: id, Stage: stage, Layer: layer,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// handler records a span around h for every request and puts the request
// id into the request context. With tracing off it is h itself.
func (t *tracer) handler(stage, layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseUint(r.Header.Get(idHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), idKey{}, id)))
		t.record(id, stage, layer, start, time.Now())
	})
}

// forwardTransport is the router's forwarding transport: it copies the
// request id onto each forward and records a "forward" span from sending
// the request until the router closes the response body.
type forwardTransport struct {
	t     *tracer
	stage string
	base  http.RoundTripper
}

func (f forwardTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !f.t.enabled() {
		return f.base.RoundTrip(req)
	}
	id, _ := req.Context().Value(idKey{}).(uint64)
	req = req.Clone(req.Context())
	req.Header.Set(idHeader, strconv.FormatUint(id, 10))
	start := time.Now()
	resp, err := f.base.RoundTrip(req)
	if err != nil {
		f.t.record(id, f.stage, "forward", start, time.Now())
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		f.t.record(id, f.stage, "forward", start, time.Now())
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// byLayer returns the durations in ms of one stage's spans at layer.
func (t *tracer) byLayer(stage, layer string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Stage == stage && s.Layer == layer {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// report joins the spans of each request and reports self time per layer:
// a span's duration minus the part of it that its child spans cover.
func (t *tracer) report(b *bench) {
	t.mu.Lock()
	reqs := map[uint64][]span{}
	for _, s := range t.spans {
		if s.ID != 0 {
			reqs[s.ID] = append(reqs[s.ID], s)
		}
	}
	t.mu.Unlock()

	self := map[string][]float64{}
	var forwardMS, overheadMS, forwards []float64
	clients, joined := map[string]int{}, map[string]int{}
	for _, spans := range reqs {
		var client, router *span
		var fwd, rep []span
		for i := range spans {
			switch spans[i].Layer {
			case "client":
				client = &spans[i]
			case "router":
				router = &spans[i]
			case "forward":
				fwd = append(fwd, spans[i])
			case "replica", "ingest":
				rep = append(rep, spans[i])
			}
		}
		if client == nil {
			continue
		}
		stage := client.Stage
		clients[stage]++
		if router == nil {
			// Direct to a replica or the ingester: client → server.
			if len(rep) != 1 {
				continue
			}
			joined[stage]++
			self[stage+".client"] = append(self[stage+".client"], ms(dur(*client)-dur(rep[0])))
			self[stage+"."+rep[0].Layer] = append(self[stage+"."+rep[0].Layer], ms(dur(rep[0])))
			continue
		}
		if len(fwd) == 0 || len(fwd) != len(rep) {
			continue
		}
		joined[stage]++
		slowest, fwdSum, repSum := int64(0), int64(0), int64(0)
		for i := range fwd {
			d := dur(fwd[i])
			forwardMS = append(forwardMS, ms(d))
			fwdSum += d
			repSum += dur(rep[i])
			if d > slowest {
				slowest = d
			}
		}
		forwards = append(forwards, float64(len(fwd)))
		overheadMS = append(overheadMS, ms(dur(*client)-slowest))
		self[stage+".client"] = append(self[stage+".client"], ms(dur(*client)-dur(*router)))
		self[stage+".router"] = append(self[stage+".router"], ms(dur(*router)-covered(fwd)))
		self[stage+".forward"] = append(self[stage+".forward"], ms(fwdSum-repSum)/float64(len(fwd)))
		self[stage+".replica"] = append(self[stage+".replica"], ms(repSum)/float64(len(rep)))
	}
	// A fixed set of names, so that every traced run reports the same
	// metrics; a layer without joined requests reads 0. The unrouted
	// replica's self time is serve.mixed_handler_p50_ms.
	for _, k := range []string{"route.client", "route.router", "route.forward", "route.replica",
		"mixed.client", "ingest.client", "ingest.ingest"} {
		b.layer("span."+k+"_self_ms_p50", "ms", quantile(self[k], 0.5))
	}
	for _, stage := range []string{"route", "mixed", "ingest"} {
		b.layer("span."+stage+".joined_share", "ratio", float64(joined[stage])/float64(max(clients[stage], 1)))
	}
	b.layer("cluster.forward_ms_p50", "ms", quantile(forwardMS, 0.5))
	b.layer("cluster.forwards_per_request", "count", mean(forwards))
	b.layer("cluster.overhead_ms_p50", "ms", quantile(overheadMS, 0.5))
}

func dur(s span) int64    { return s.End - s.Start }
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// covered is the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var total, end int64
	for i, s := range sorted {
		switch {
		case i == 0 || s.Start > end:
			total += s.End - s.Start
			end = s.End
		case s.End > end:
			total += s.End - end
			end = s.End
		}
	}
	return total
}
