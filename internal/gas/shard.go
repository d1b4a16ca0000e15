package gas

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cold-diffusion/cold/internal/faultinject"
)

// Sharded scatter execution. GraphLab's scaling (Low et al., PVLDB
// 2012, §5) comes from two properties a naive block-per-worker scatter
// lacks: work is partitioned by locality and cost rather than by index
// range, and the schedule is a property of the *graph*, not of the
// worker pool, so adding workers changes only who executes a shard —
// never what any shard computes. The engine builds the shard plan once
// at construction, and a persistent worker pool executes it every
// superstep without allocating.

const (
	// shardsPerBatch is the scheduling granularity *within one
	// barrier-delimited batch* — the unit that bounds parallelism,
	// since workers only rebalance between barriers. ~4× the largest
	// expected worker count keeps dynamic assignment load-balanced even
	// under weight skew, while per-shard dispatch and timing overhead
	// stay invisible.
	shardsPerBatch = 32
	// maxScatterBatches bounds how many scatter barriers a superstep
	// pays: colour classes merge (in colour order) until each batch
	// carries at least 1/maxScatterBatches of the total edge weight.
	maxScatterBatches = 16
)

// shardSpan is one contiguous unit of scatter work. id is global across
// the whole plan and stable for the lifetime of the engine.
type shardSpan struct {
	id    int
	edges []int32
}

// shardBatch is a barrier-delimited group of mutually independent
// shards; a boundary merge may run after each batch.
type shardBatch struct {
	shards []shardSpan
}

// shardPlan is the complete scatter schedule of one engine.
type shardPlan struct {
	batches []shardBatch
	shards  int
}

// edgeWeights evaluates the program's EdgeWeight for every edge,
// clamping to a minimum of 1 so zero-weight spans cannot defeat the
// balancing arithmetic.
func edgeWeights[ED, Ctx any](g *Graph[ED], p Program[ED, Ctx]) []int64 {
	weights := make([]int64, len(g.Edges))
	for i := range g.Edges {
		weights[i] = max(p.EdgeWeight(g, int32(i), &g.Edges[i]), 1)
	}
	return weights
}

// colorEdges assigns each edge the smallest colour not used by another
// edge at either endpoint (greedy edge colouring; at most 2Δ−1 colours)
// and returns the edge ids per colour class, in id order.
func colorEdges[ED any](g *Graph[ED]) [][]int32 {
	edgeColor := make([]int, len(g.Edges))
	for i := range edgeColor {
		edgeColor[i] = -1
	}
	var classes [][]int32
	used := make(map[int]bool)
	for id := range g.Edges {
		e := &g.Edges[id]
		clear(used)
		for _, nb := range g.incident[e.Src] {
			if c := edgeColor[nb]; c >= 0 {
				used[c] = true
			}
		}
		for _, nb := range g.incident[e.Dst] {
			if c := edgeColor[nb]; c >= 0 {
				used[c] = true
			}
		}
		color := 0
		for used[color] {
			color++
		}
		edgeColor[id] = color
		for color >= len(classes) {
			classes = append(classes, nil)
		}
		classes[color] = append(classes[color], int32(id))
	}
	return classes
}

// buildShardPlan turns ordered edge classes into the scatter schedule:
// classes coalesce in order into at most ~maxScatterBatches batches,
// and each batch splits into up to shardsPerBatch contiguous shards with
// cuts placed to balance weight, not edge count. The result depends only
// on (classes, weights).
func buildShardPlan(classes [][]int32, weights []int64) *shardPlan {
	var total int64
	classW := make([]int64, len(classes))
	for i, class := range classes {
		var w int64
		for _, eid := range class {
			w += weights[eid]
		}
		classW[i] = w
		total += w
	}

	var groups [][]int32
	var groupW []int64
	minW := total / maxScatterBatches
	var cur []int32
	var curW int64
	for i, class := range classes {
		cur = append(cur, class...)
		curW += classW[i]
		if (curW > minW || i == len(classes)-1) && len(cur) > 0 {
			groups = append(groups, cur)
			groupW = append(groupW, curW)
			cur, curW = nil, 0
		}
	}

	plan := &shardPlan{}
	id := 0
	for gi, edges := range groups {
		gw := groupW[gi]
		ns := shardsPerBatch
		if ns > len(edges) {
			ns = len(edges)
		}
		batch := shardBatch{shards: make([]shardSpan, 0, ns)}
		lo, s := 0, 0
		var cum int64
		for i, eid := range edges {
			cum += weights[eid]
			var cut bool
			if s+1 == ns {
				cut = i == len(edges)-1
			} else {
				remEdges := len(edges) - (i + 1)
				remShards := ns - (s + 1)
				cut = (cum*int64(ns) >= int64(s+1)*gw && remEdges >= remShards) ||
					remEdges == remShards
			}
			if cut {
				batch.shards = append(batch.shards, shardSpan{id: id, edges: edges[lo : i+1]})
				id++
				s++
				lo = i + 1
			}
		}
		plan.batches = append(plan.batches, batch)
	}
	plan.shards = id
	return plan
}

// EngineStats accumulates scatter timing across supersteps (supervised
// batches keep their own accounting and add nothing here). It is what
// the bench layer reads to report scaling honestly.
type EngineStats struct {
	// Supersteps counts completed Step calls since the last reset.
	Supersteps int
	// BusySeconds sums the execution time of every scatter shard.
	BusySeconds float64
	// BarrierSeconds sums the time workers spent waiting for the
	// slowest worker at batch barriers.
	BarrierSeconds float64
	// SerialSeconds sums single-threaded MergeBoundary time.
	SerialSeconds float64
	// BatchBusy and BatchMaxShard accumulate, per scatter batch, the
	// summed shard seconds and the longest single shard of each
	// superstep — the inputs of the critical-path projection.
	BatchBusy     []float64
	BatchMaxShard []float64
}

// ProjectedSeconds is the critical-path projection of the recorded
// scatter schedule onto w ideal workers: each batch cannot finish
// faster than max(batch work / w, its longest shard), and serial merge
// sections add on top. Because the shard plan and the sampled chain are
// worker-count independent, the projection from a 1-worker run is the
// schedule's true parallel structure — which a host with fewer cores
// than workers cannot show in wall-clock time.
func (s EngineStats) ProjectedSeconds(w int) float64 {
	if w < 1 {
		w = 1
	}
	total := s.SerialSeconds
	for b, busy := range s.BatchBusy {
		p := busy / float64(w)
		if m := s.BatchMaxShard[b]; m > p {
			p = m
		}
		total += p
	}
	return total
}

// clone returns a deep copy safe to hand to callers.
func (s EngineStats) clone() EngineStats {
	out := s
	out.BatchBusy = append([]float64(nil), s.BatchBusy...)
	out.BatchMaxShard = append([]float64(nil), s.BatchMaxShard...)
	return out
}

// scatterPool is a persistent worker pool executing shard batches. The
// goroutines live for the engine's lifetime and receive work over
// per-worker channels, so a steady-state scatter phase performs no
// allocations — no per-phase goroutines, closures or slices. Shards are
// claimed off a shared atomic cursor: the shard→worker mapping is
// dynamic (good load balance under skew), which is safe precisely
// because sharded programs key their state by shard id, not worker id.
type scatterPool[ED, Ctx any] struct {
	g       *Graph[ED]
	prog    Program[ED, Ctx]
	ctxs    []Ctx
	workers int

	tasks  []chan []shardSpan
	wg     sync.WaitGroup
	cursor atomic.Int64

	errs []error
	busy []time.Duration
	done []time.Time
	// shardSecs[id] is the duration of shard id's most recent run,
	// overwritten each batch; the engine folds it into EngineStats.
	shardSecs []float64
}

func newScatterPool[ED, Ctx any](g *Graph[ED], prog Program[ED, Ctx], ctxs []Ctx, workers, totalShards int) *scatterPool[ED, Ctx] {
	p := &scatterPool[ED, Ctx]{
		g:         g,
		prog:      prog,
		ctxs:      ctxs,
		workers:   workers,
		errs:      make([]error, workers),
		busy:      make([]time.Duration, workers),
		done:      make([]time.Time, workers),
		shardSecs: make([]float64, totalShards),
	}
	if workers > 1 {
		p.tasks = make([]chan []shardSpan, workers)
		for w := range p.tasks {
			p.tasks[w] = make(chan []shardSpan, 1)
			go p.serve(w)
		}
	}
	return p
}

// serve is one pool goroutine's loop.
func (p *scatterPool[ED, Ctx]) serve(w int) {
	for shards := range p.tasks[w] {
		start := time.Now()
		p.runWorker(w, shards)
		p.done[w] = time.Now()
		p.busy[w] = p.done[w].Sub(start)
		p.wg.Done()
	}
}

// recoverWorker converts a worker panic into that worker's error slot.
// It is deferred as a direct method call — a closure here would be
// heap-allocated per batch under gcshape stenciling.
func (p *scatterPool[ED, Ctx]) recoverWorker(w int) {
	if r := recover(); r != nil {
		p.errs[w] = fmt.Errorf("gas: worker %d: panic: %v\n%s", w, r, truncatedStack())
	}
}

// runWorker drains shards for worker w, containing panics.
func (p *scatterPool[ED, Ctx]) runWorker(w int, shards []shardSpan) {
	defer p.recoverWorker(w)
	if faultinject.Armed() {
		faultinject.Fire(faultinject.GasScatterWorker, w)
	}
	ctx := p.ctxs[w]
	for {
		i := int(p.cursor.Add(1)) - 1
		if i >= len(shards) {
			return
		}
		sh := shards[i]
		t0 := time.Now()
		p.prog.ScatterShard(p.g, sh.id, sh.edges, ctx, nil)
		p.shardSecs[sh.id] = time.Since(t0).Seconds()
	}
}

// runBatch executes one batch across the pool and returns the first
// worker error. Per-shard seconds land in shardSecs and per-worker
// busy/finish times in busy/done for the engine to aggregate.
func (p *scatterPool[ED, Ctx]) runBatch(shards []shardSpan) error {
	p.cursor.Store(0)
	if p.workers == 1 {
		p.errs[0] = nil
		start := time.Now()
		p.runWorker(0, shards)
		p.done[0] = time.Now()
		p.busy[0] = p.done[0].Sub(start)
		return p.errs[0]
	}
	for w := 0; w < p.workers; w++ {
		p.errs[w] = nil
	}
	p.wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		p.tasks[w] <- shards
	}
	p.wg.Wait()
	for _, err := range p.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// observeBatch folds one batch's pool timings into the stats and the
// optional metrics: per-shard seconds into busy and critical-path rows,
// per-worker finish spread into barrier wait.
func (e *Engine[ED, Ctx]) observeBatch(bi int) {
	p, m := e.pool, e.m
	var busy, maxShard float64
	for _, sh := range e.plan.batches[bi].shards {
		s := p.shardSecs[sh.id]
		busy += s
		if s > maxShard {
			maxShard = s
		}
	}
	e.stats.BusySeconds += busy
	e.stats.BatchBusy[bi] += busy
	e.stats.BatchMaxShard[bi] += maxShard

	if p.workers == 1 {
		if m != nil {
			m.WorkerBusy.Observe(p.busy[0].Seconds())
			m.BarrierWait.Observe(0)
		}
		return
	}
	var last time.Time
	for w := 0; w < p.workers; w++ {
		if p.done[w].After(last) {
			last = p.done[w]
		}
	}
	for w := 0; w < p.workers; w++ {
		wait := last.Sub(p.done[w]).Seconds()
		e.stats.BarrierSeconds += wait
		if m != nil {
			m.WorkerBusy.Observe(p.busy[w].Seconds())
			m.BarrierWait.Observe(wait)
		}
	}
}
