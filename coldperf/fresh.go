package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/cold-diffusion/cold/internal/core"
	"github.com/cold-diffusion/cold/internal/ingest"
)

// freshTail is how long score traffic continues after a round's ingest
// stream stops, so the round's last acknowledged posts are folded and
// published (within one fold tick, or a few when a fold runs long) and
// then seen in a served generation.
const freshTail = 4 * foldEvery

// ack is one acknowledged ingest record.
type ack struct {
	seq uint64
	at  time.Time
}

// seen is one completed score response: when it completed and which
// generation served it.
type seen struct {
	at  time.Time
	gen uint64
}

// fresh runs writes beside reads on the unrouted replica: one connection
// posts the ingest stream at ingestRate, one sends cache-missing score
// batches at the workload's mixed rate. Freshness is timed from a post's
// ingest acknowledgement to the first completed score response served
// from a generation that includes it.
type fresh struct {
	b       *bench
	d       *deployment
	in      *inputs
	ingC    *http.Client
	scoreC  *http.Client
	before  serveCounters
	queue   func() float64
	ingestP *phase
	mixedP  *phase
	next    int // next ingest record
	nextB   int // next score batch

	mu      sync.Mutex
	acks    []ack
	seens   []seen
	checked int
	starts  []int // index into acks of each round's first record

	scores, ingests loop
}

func (b *bench) newFresh(in *inputs, d *deployment) *fresh {
	return &fresh{b: b, d: d, in: in, ingC: newClient(1), scoreC: newClient(1),
		before: countersOf([]*replica{d.fresh}), queue: b.sampleQueue(d),
		ingestP: b.phase("ingest"), mixedP: b.phase("mixed")}
}

func (f *fresh) ingestOne(i int) error {
	b := f.b
	id := b.tr.newID()
	start := time.Now()
	raw, err := post(f.ingC, f.d.ingest.url+"/v1/ingest", f.in.bodies[i%len(f.in.bodies)], id)
	end := time.Now()
	b.tr.record(id, "ingest", "client", start, end)
	if err != nil {
		return err
	}
	var r struct {
		Seq     uint64 `json:"seq"`
		Durable bool   `json:"durable"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return err
	}
	if !r.Durable {
		return fmt.Errorf("seq %d acknowledged without durability", r.Seq)
	}
	f.mu.Lock()
	f.acks = append(f.acks, ack{r.Seq, end})
	f.mu.Unlock()
	return nil
}

func (f *fresh) scoreOne(body []byte, check bool) error {
	b := f.b
	id := b.tr.newID()
	start := time.Now()
	raw, err := post(f.scoreC, f.d.fresh.l.url+"/v1/score/batch", body, id)
	end := time.Now()
	b.tr.record(id, "mixed", "client", start, end)
	if err != nil {
		return err
	}
	r, err := decodeReply(raw, batchItems)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.seens = append(f.seens, seen{end, r.Generation})
	f.mu.Unlock()
	if check {
		snap := f.d.reloads.snapshot(r.Generation)
		if snap == nil {
			return fmt.Errorf("generation %d was never published", r.Generation)
		}
		items, err := itemsOf(body)
		if err == nil {
			err = sameScores(f.in, snap.Engine, items, r)
		}
		if err != nil {
			b.fail("fresh score differs from generation %d's engine: %v", r.Generation, err)
		}
		f.mu.Lock()
		f.checked++
		f.mu.Unlock()
	}
	return nil
}

// round runs the ingest stream for one window beside the score stream,
// which runs freshTail longer. Records and batches continue across rounds.
func (f *fresh) round() error {
	b := f.b
	window := b.window(freshShare) / rounds
	bodies := make([][]byte, int(mixedRate*(window+freshTail).Seconds()))
	for i := range bodies {
		var err error
		if bodies[i], err = batchBody(f.in.mixedItems(f.nextB + i)); err != nil {
			return err
		}
	}
	first, firstB := f.next, f.nextB
	f.starts = append(f.starts, len(f.acks))
	var ing *loop
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ing = openLoop(ingestRate, 1, window, f.ingestP, func(i int) error { return f.ingestOne(first + i) })
	}()
	sc := openLoop(mixedRate, 1, window+freshTail, f.mixedP, func(i int) error {
		return f.scoreOne(bodies[i], (firstB+i)%mixedCheckEvery == 0)
	})
	wg.Wait()
	f.next += int(ingestRate * window.Seconds())
	f.nextB += len(bodies)
	f.scores.add(sc)
	f.ingests.add(ing)
	return nil
}

// finish drains the ingester, checks that every acknowledged record was
// applied, and reports the fresh figures.
func (f *fresh) finish() error {
	b, d := f.b, f.d
	f.ingC.CloseIdleConnections()
	f.scoreC.CloseIdleConnections()
	queueMax := f.queue()
	delta := countersOf([]*replica{d.fresh}).minus(f.before)

	b.e2e("mixed_p50_ms", "ms", b.overRounds("mixed_p50_ms", f.scores.perRound(p50)))
	b.extra["mixed_p90_ms"] = mean(f.scores.perRound(p90))
	b.extra["mixed_p99_ms"] = mean(f.scores.perRound(p99))
	b.extra["ingest_ack_p50_ms"] = mean(f.ingests.perRound(p50))
	b.extra["ingest_ack_p90_ms"] = mean(f.ingests.perRound(p90))
	b.extra["ingest_ack_p99_ms"] = mean(f.ingests.perRound(p99))
	b.lateness("mixed", &f.scores)
	b.lateness("ingest", &f.ingests)
	b.extra["fresh_checked_responses"] = float64(f.checked)
	if f.checked == 0 {
		b.fail("no fresh response was checked against the engine")
	}

	if err := d.drainIngest(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	d.reloads.mu.Lock()
	marks := append([]genMark(nil), d.reloads.marks...)
	d.reloads.mu.Unlock()
	var p50s, p99s []float64
	unseen := 0
	for r, lo := range f.starts {
		hi := len(f.acks)
		if r+1 < len(f.starts) {
			hi = f.starts[r+1]
		}
		fr, n := freshness(f.acks[lo:hi], f.seens, marks)
		unseen += n
		if len(fr) > 0 {
			p50s, p99s = append(p50s, quantile(fr, 0.5)), append(p99s, quantile(fr, 0.99))
		}
	}
	b.extra["fresh_unseen_records"] = float64(unseen)
	if unseen > 0 {
		b.fail("%d acknowledged records were never seen in a served generation", unseen)
	}
	b.e2e("fresh_p50_ms", "ms", b.overRounds("fresh_p50_ms", p50s))
	b.e2e("fresh_p99_ms", "ms", b.overRounds("fresh_p99_ms", p99s))
	b.extra["published_generations"] = float64(d.ing.Generation())
	st := d.ing.Status()
	var lastAck uint64
	for _, a := range f.acks {
		lastAck = max(lastAck, a.seq)
	}
	if st.AppliedSeq < st.LastSeq || st.LastSeq < lastAck {
		b.fail("after drain applied seq %d, wal last seq %d, last acked seq %d", st.AppliedSeq, st.LastSeq, lastAck)
	}
	if b.trace {
		return b.freshLayers(f.in, d, delta, queueMax)
	}
	return nil
}

// freshness returns, for each acknowledged record, the ms from its
// acknowledgement to the first later score response whose generation
// includes it, and the number of records no such response followed.
func freshness(acks []ack, seens []seen, marks []genMark) ([]float64, int) {
	applied := map[uint64]uint64{}
	for _, m := range marks {
		applied[m.gen] = m.applied
	}
	var out []float64
	unseen := 0
	for _, a := range acks {
		found := false
		for _, s := range seens {
			if !s.at.Before(a.at) && applied[s.gen] >= a.seq {
				out = append(out, ms(s.at.Sub(a.at).Nanoseconds()))
				found = true
				break
			}
		}
		if !found {
			unseen++
		}
	}
	return out, unseen
}

// sampleQueue polls the ingester's queue-depth gauge every 2 ms in traced
// runs until the returned stop function is called; it returns the maximum.
func (b *bench) sampleQueue(d *deployment) func() float64 {
	if !b.trace {
		return func() float64 { return 0 }
	}
	stop, done := make(chan struct{}), make(chan struct{})
	var peak float64
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, d.ingMet.QueueDepth.Value())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		<-done
		return peak
	}
}

// freshLayers reports the ingest path's layers: fold and reload cost, the
// WAL append, fold-in and the uncached score kernel, each timed on this
// run's own records and items.
func (b *bench) freshLayers(in *inputs, d *deployment, delta serveCounters, queueMax float64) error {
	folds := d.ingMet.FoldSeconds
	b.layer("ingest.fold_ms_per_tick", "ms", 1000*folds.Sum()/float64(max(folds.Count(), 1)))
	b.layer("ingest.records_per_fold", "count", float64(d.ingMet.Applied.Value())/float64(max(folds.Count(), 1)))
	b.layer("ingest.queue_depth_max", "count", queueMax)
	d.reloads.mu.Lock()
	b.layer("serve.reload_ms", "ms", quantile(d.reloads.msecs, 0.5))
	d.reloads.mu.Unlock()
	b.layer("serve.mixed_cache_hit_share", "ratio", delta.hitShare())
	h := b.tr.byLayer("mixed", "replica")
	b.layer("serve.mixed_handler_p50_ms", "ms", quantile(h, 0.5))
	b.layer("serve.mixed_handler_p99_ms", "ms", quantile(h, 0.99))

	const n = 300 // records or batches timed per kernel
	wal, _, err := ingest.OpenWAL(ingest.WALConfig{Dir: filepath.Join(b.dir, "wal-bench")})
	if err != nil {
		return err
	}
	var appends []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		_, _, err := wal.Append(in.bodies[i])
		if err != nil {
			wal.Close()
			return err
		}
		appends = append(appends, float64(time.Since(start).Nanoseconds())/1e3)
	}
	if err := wal.Close(); err != nil {
		return err
	}
	if err := os.RemoveAll(filepath.Join(b.dir, "wal-bench")); err != nil {
		return err
	}
	b.layer("ingest.wal_append_us", "us", quantile(appends, 0.5))

	base := d.ing.Model()
	var folds1 []float64
	for i := 0; i < n; i++ {
		rec := in.records[i]
		start := time.Now()
		base.FoldIn([]core.FoldInPost{{Words: rec.Words, Time: rec.Slice}}, 0, uint64(i)+1)
		folds1 = append(folds1, ms(time.Since(start).Nanoseconds()))
	}
	b.layer("core.foldin_ms_per_record", "ms", quantile(folds1, 0.5))

	pred := core.NewPredictor(base, 0)
	var items []item
	for i := 0; i < n; i++ {
		items = append(items, in.mixedItems(i)...)
	}
	start := time.Now()
	for _, it := range items {
		pred.Score(it.Publisher, it.Candidate, in.words(it.Post))
	}
	b.layer("core.score_us_per_item", "us", float64(time.Since(start).Nanoseconds())/1e3/float64(len(items)))
	return nil
}
