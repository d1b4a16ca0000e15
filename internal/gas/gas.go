// Package gas implements the vertex-centric gather–apply–scatter (GAS)
// engine, in the style of distributed GraphLab (Low et al., PVLDB 2012),
// which the paper uses to parallelise COLD's collapsed Gibbs sampler
// (§4.3, Alg 2). Goroutine workers stand in for cluster nodes.
//
// The engine runs the one program shape the sampler needs: an
// incremental, sharded scatter. The program keeps every vertex-adjacent
// quantity itself, so there is no gather/apply phase. A superstep
// scatters every edge once, in a fixed schedule of barrier-delimited
// batches, and after each batch the program folds the per-worker
// contexts into global state — the "periodic aggregation of global
// counters" described in the paper. Within a batch all reads see the
// state as of the previous boundary, and the schedule is a function of
// the graph alone, so results do not depend on worker interleaving or
// on the worker count.
package gas

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"github.com/cold-diffusion/cold/internal/faultinject"
	"github.com/cold-diffusion/cold/internal/obs"
)

// Metrics carries the engine's observability instruments. All fields
// are optional (nil instruments are no-ops) and a nil *Metrics disables
// timing entirely, keeping the uninstrumented hot path free of clock
// reads. One Metrics may be shared by several engines.
type Metrics struct {
	// WorkerBusy observes, once per worker per scatter batch, the
	// seconds that worker spent running shards.
	WorkerBusy *obs.Histogram
	// BarrierWait observes, once per worker per scatter batch, the
	// seconds between that worker finishing and the slowest worker
	// finishing — the time lost to the batch barrier. A skewed
	// distribution here means poor shard balance.
	BarrierWait *obs.Histogram
	// Supersteps counts completed Step calls.
	Supersteps *obs.Counter
	// WorkerStalls counts scatter batches aborted by the stall
	// supervisor (per-worker silence past StallPolicy.Grace or a whole
	// batch past StallPolicy.Deadline).
	WorkerStalls *obs.Counter
	// WorkerRestarts counts worker slots recreated after a stall. The
	// engine itself cannot restart workers (a poisoned engine must be
	// discarded); the layer that rebuilds the pool from a known-good
	// snapshot adds to this counter.
	WorkerRestarts *obs.Counter
}

// NewMetrics registers the engine's instruments on reg under the
// cold_gas_* namespace.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		WorkerBusy: reg.Histogram("cold_gas_worker_busy_seconds",
			"Per-worker busy time in one scatter batch.", nil),
		BarrierWait: reg.Histogram("cold_gas_barrier_wait_seconds",
			"Per-worker wait for the slowest worker at the batch barrier.", nil),
		Supersteps: reg.Counter("cold_gas_supersteps_total",
			"Completed GAS supersteps."),
		WorkerStalls: reg.Counter("cold_gas_worker_stalls_total",
			"Scatter batches aborted by the stall supervisor."),
		WorkerRestarts: reg.Counter("cold_gas_worker_restarts_total",
			"Worker slots recreated after a stall by rebuilding the engine."),
	}
}

// Edge is a directed edge with attached data. Src and Dst index the
// graph's vertices.
type Edge[ED any] struct {
	Src, Dst int32
	Data     ED
}

// Graph is a static graph over typed edge data; vertices are bare ids
// in [0, n). Build it with NewGraph and AddEdge, then Finalize before
// running an engine.
type Graph[ED any] struct {
	Edges []Edge[ED]

	vertices  int
	incident  [][]int32 // edge ids incident to each vertex (in or out)
	finalized bool
}

// NewGraph creates a graph over n vertices.
func NewGraph[ED any](n int) *Graph[ED] {
	return &Graph[ED]{vertices: n}
}

// AddEdge appends an edge and returns its id. Panics after Finalize.
func (g *Graph[ED]) AddEdge(src, dst int32, data ED) int32 {
	if g.finalized {
		panic("gas: AddEdge after Finalize")
	}
	if int(src) >= g.vertices || int(dst) >= g.vertices || src < 0 || dst < 0 {
		panic(fmt.Sprintf("gas: edge (%d,%d) out of range", src, dst))
	}
	g.Edges = append(g.Edges, Edge[ED]{Src: src, Dst: dst, Data: data})
	return int32(len(g.Edges) - 1)
}

// Finalize builds the incidence index. Call once after all AddEdge calls.
func (g *Graph[ED]) Finalize() {
	if g.finalized {
		return
	}
	g.incident = make([][]int32, g.vertices)
	for id := range g.Edges {
		e := &g.Edges[id]
		g.incident[e.Src] = append(g.incident[e.Src], int32(id))
		if e.Dst != e.Src {
			g.incident[e.Dst] = append(g.incident[e.Dst], int32(id))
		}
	}
	g.finalized = true
}

// Incident returns the edge ids incident to vertex v (do not modify).
func (g *Graph[ED]) Incident(v int32) []int32 { return g.incident[v] }

// Program is a sharded GAS vertex program. Ctx is the per-worker scatter
// context carrying buffered global-state deltas.
type Program[ED, Ctx any] interface {
	// NewCtx allocates the context for one worker.
	NewCtx(worker int) Ctx
	// EdgeWeight reports how expensive one edge's scatter is (for the
	// COLD sampler: its token mass). The engine balances shards by
	// weight instead of edge count; weights below 1 count as 1.
	EdgeWeight(g *Graph[ED], eid int32, e *Edge[ED]) int64
	// ScatterShard scatters one shard: a fixed contiguous
	// weight-balanced span of the schedule, computed once at engine
	// construction from the graph and edge weights alone — never from
	// the worker count. A program that keys its randomness by shard id
	// (rather than worker id) therefore samples an identical chain under
	// any pool size. edges holds the shard's edge ids in canonical
	// order. beat must be ticked once per edge (it is nil-safe); a false
	// Next signals a supervised abort and the implementation must
	// return immediately.
	ScatterShard(g *Graph[ED], shard int, edges []int32, ctx Ctx, beat *Beat)
	// MergeBoundary folds every worker context into global state after
	// each batch, so the next batch samples against fresher counters.
	// It runs single-threaded.
	MergeBoundary(ctxs []Ctx)
}

// Engine drives supersteps of a Program over a finalized Graph with a
// persistent worker pool.
//
// Scheduling follows GraphLab's chromatic engine: edges are coloured
// greedily so that edges sharing an endpoint never share a colour, and
// the colour-major order is the scatter order. Because the program
// touches no shared vertex data between boundaries, adjacent colour
// classes coalesce into at most ~maxScatterBatches weight-bounded
// batches; the boundary merge after each batch is what keeps counters
// fresh.
type Engine[ED, Ctx any] struct {
	g        *Graph[ED]
	p        Program[ED, Ctx]
	ctxs     []Ctx
	plan     *shardPlan
	pool     *scatterPool[ED, Ctx]
	stats    EngineStats
	m        *Metrics
	sp       *StallPolicy
	poisoned error // set after a stall; every later Step returns it
}

// NewEngine colours the graph's edges, builds the shard plan and starts
// the worker pool (minimum 1 worker). Colouring and planning are
// deterministic: edges are processed in id order.
func NewEngine[ED, Ctx any](g *Graph[ED], p Program[ED, Ctx], workers int) *Engine[ED, Ctx] {
	if !g.finalized {
		g.Finalize()
	}
	if workers < 1 {
		workers = 1
	}
	e := &Engine[ED, Ctx]{g: g, p: p, ctxs: make([]Ctx, workers)}
	for w := range e.ctxs {
		e.ctxs[w] = p.NewCtx(w)
	}
	e.plan = buildShardPlan(colorEdges(g), edgeWeights(g, p))
	e.pool = newScatterPool(g, p, e.ctxs, workers, e.plan.shards)
	e.stats.BatchBusy = make([]float64, len(e.plan.batches))
	e.stats.BatchMaxShard = make([]float64, len(e.plan.batches))
	return e
}

// NumShards reports the shard plan's shard count. Programs size
// per-shard state, e.g. RNG streams, from it.
func (e *Engine[ED, Ctx]) NumShards() int { return e.plan.shards }

// Workers returns the engine's worker count.
func (e *Engine[ED, Ctx]) Workers() int { return e.pool.workers }

// Ctxs returns the per-worker scatter contexts, for programs that need to
// reset worker-local state between supersteps.
func (e *Engine[ED, Ctx]) Ctxs() []Ctx { return e.ctxs }

// SetMetrics attaches observability instruments. Pass nil to detach.
// Call before the first Step; the engine does not synchronise access.
func (e *Engine[ED, Ctx]) SetMetrics(m *Metrics) { e.m = m }

// SetStallPolicy arms per-batch stall supervision. Pass nil to disarm.
// Call before the first Step; the engine does not synchronise access.
func (e *Engine[ED, Ctx]) SetStallPolicy(sp *StallPolicy) { e.sp = sp }

// Stats returns a copy of the accumulated scatter timing.
func (e *Engine[ED, Ctx]) Stats() EngineStats { return e.stats.clone() }

// ResetStats zeroes the accumulated timing in place.
func (e *Engine[ED, Ctx]) ResetStats() {
	n := len(e.stats.BatchBusy)
	e.stats = EngineStats{BatchBusy: make([]float64, n), BatchMaxShard: make([]float64, n)}
}

// Step runs one superstep: every batch of the schedule through the pool,
// each followed by MergeBoundary. A panic in a worker or in the merge is
// recovered and returned as an error rather than crashing the host
// process; the superstep's partial effects are undefined and the caller
// should discard or roll back the program state.
//
// Under a StallPolicy a hung worker additionally turns into an error
// wrapping ErrStalled within the policy's bounds, and the engine is
// poisoned: the stuck goroutine may still be mutating program state, so
// no further supersteps are allowed and Step keeps returning the stall
// error. Rebuild the engine (and its program state) from a known-good
// snapshot to continue.
func (e *Engine[ED, Ctx]) Step() error {
	if e.poisoned != nil {
		return e.poisoned
	}
	for bi := range e.plan.batches {
		if err := e.scatterBatch(bi); err != nil {
			if errors.Is(err, ErrStalled) {
				e.poisoned = err
			}
			return err
		}
		if err := e.mergeBoundary(); err != nil {
			return err
		}
	}
	e.stats.Supersteps++
	if e.m != nil {
		e.m.Supersteps.Inc()
	}
	return nil
}

// scatterBatch executes batch bi through the pool or, under a
// StallPolicy, through the supervised fan-out.
func (e *Engine[ED, Ctx]) scatterBatch(bi int) error {
	shards := e.plan.batches[bi].shards
	if !e.sp.enabled() {
		if err := e.pool.runBatch(shards); err != nil {
			return err
		}
		e.observeBatch(bi)
		return nil
	}
	return runSupervised(e.m, e.sp, len(e.ctxs), len(shards), func(worker, lo, hi int, beat *Beat) {
		faultinject.Fire(faultinject.GasScatterWorker, worker)
		ctx := e.ctxs[worker]
		for _, sh := range shards[lo:hi] {
			e.p.ScatterShard(e.g, sh.id, sh.edges, ctx, beat)
		}
	})
}

// mergeBoundary folds buffered deltas at a batch boundary under the
// serial-time clock. The recover is open-coded — no closure — so a
// steady-state sweep with many batches stays allocation-free.
func (e *Engine[ED, Ctx]) mergeBoundary() (err error) {
	t0 := time.Now()
	defer func() {
		e.stats.SerialSeconds += time.Since(t0).Seconds()
		if p := recover(); p != nil {
			err = fmt.Errorf("gas: boundary merge panic: %v\n%s", p, truncatedStack())
		}
	}()
	e.p.MergeBoundary(e.ctxs)
	return nil
}

// safely runs fn, converting a panic into an error carrying the panic
// value and a truncated stack.
func safely(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("gas: panic: %v\n%s", p, truncatedStack())
		}
	}()
	fn()
	return nil
}

func truncatedStack() []byte {
	stack := debug.Stack()
	if len(stack) > 2048 {
		stack = stack[:2048]
	}
	return stack
}
