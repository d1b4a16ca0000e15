package core

import (
	"fmt"
	"sort"

	"github.com/cold-diffusion/cold/internal/corpus"
	"github.com/cold-diffusion/cold/internal/gas"
	"github.com/cold-diffusion/cold/internal/rng"
)

// Parallel inference (§4.3, Alg 2). The dataset is laid out as the
// bipartite graph of Fig 4: user vertices and time-slice vertices, with
// a user–time edge holding the posts that user published in that slice,
// and user–user edges carrying the link community indicators.
//
// The program is *incremental* in the GraphLab sense: it owns one full
// serial `state` (the same counter matrices and derived float caches
// the serial sampler uses) as the shared snapshot, and workers buffer
// their count adjustments in sparse per-worker deltas that merge back
// into that state at batch boundaries — O(entries touched), never
// O(C·K + K·V). There is no gather/apply phase and no per-sweep counter
// rebuild: between merges the state is read-only, and each merge
// refreshes exactly the derived cache entries whose counters moved.
//
// Determinism does not depend on the worker count. The engine cuts the
// scatter order into token-mass-balanced shards as a function of the
// graph alone, and every shard carries its own RNG stream seeded from
// (cfg.Seed, shard id). Whichever worker executes a shard draws the
// same variates, within-shard order is the edge order, and the buffered
// deltas are integer additions (commutative, associative), so the
// sampled chain — and the final model, bit for bit — is identical for
// workers ∈ {1, 2, 4, 8, ...}. The 1-worker execution of this schedule
// doubles as the canonical "serial" reference in the determinism tests.

type coldED struct {
	link  int32   // link index, or -1 for a user–time edge
	posts []int32 // post indices for user–time edges, ascending
}

// coldCtx is one worker's scatter context: sparse count deltas buffered
// against the shared state, plus kernel scratch. It carries no RNG —
// randomness is keyed by shard, not worker (see coldProgram.shardRNG).
type coldCtx struct {
	dNIC    *delta // U*C  user–community (posts and link endpoints)
	dNCK    *delta // C*K  posts per cell; also folds into nCKTSum
	dNCKSum *delta // C
	dNCKT   *delta // (C*K)*T
	dNKV    *delta // K*V
	dNKVSum *delta // K
	dNCC    *delta // C*C
	dNSC    *delta // C
	dNDC    *delta // C
	wc      []float64
	wk      []float64
}

// resetDeltas clears every pending adjustment; required after a failed
// superstep whose merge never ran, so a later merge cannot fold stale
// deltas from the abandoned sweep.
func (ctx *coldCtx) resetDeltas() {
	for _, d := range []*delta{ctx.dNIC, ctx.dNCK, ctx.dNCKSum, ctx.dNCKT,
		ctx.dNKV, ctx.dNKVSum, ctx.dNCC, ctx.dNSC, ctx.dNDC} {
		d.reset()
	}
}

type coldProgram struct {
	cfg  Config
	data *corpus.Dataset

	// st is the single source of truth: assignments, integer counters
	// and derived kernel caches, shared by every worker as the
	// read-only snapshot between merge boundaries. Latent assignment
	// writes (st.c/z/s/sp) are race-free because each post and link is
	// owned by exactly one edge, hence one shard, hence one worker.
	st *state

	// shardRNG holds one random stream per scatter shard, seeded from
	// (cfg.Seed, shard id). The shard plan depends only on (data, cfg),
	// so these streams — and the sampled chain — are identical under
	// any worker count, and checkpoints restore onto any pool size.
	shardRNG []*rng.RNG
}

func (p *coldProgram) NewCtx(worker int) *coldCtx {
	cfg, data := p.cfg, p.data
	return &coldCtx{
		dNIC:    newDelta(data.U * cfg.C),
		dNCK:    newDelta(cfg.C * cfg.K),
		dNCKSum: newDelta(cfg.C),
		dNCKT:   newDelta(cfg.C * cfg.K * data.T),
		dNKV:    newDelta(cfg.K * data.V),
		dNKVSum: newDelta(cfg.K),
		dNCC:    newDelta(cfg.C * cfg.C),
		dNSC:    newDelta(cfg.C),
		dNDC:    newDelta(cfg.C),
		wc:      make([]float64, cfg.C),
		wk:      make([]float64, cfg.K),
	}
}

// EdgeWeight estimates one edge's scatter cost for token-mass shard
// balancing: each post pays an Eq. (1) pass over C communities plus an
// Eq. (3) pass dominated by ~K multiplies per token; a link pays two
// O(C) endpoint passes.
func (p *coldProgram) EdgeWeight(g *gas.Graph[coldED], eid int32, e *gas.Edge[coldED]) int64 {
	if e.Data.link >= 0 {
		return int64(2 * p.cfg.C)
	}
	var w int64
	for _, j := range e.Data.posts {
		w += int64(p.cfg.C) + int64(p.cfg.K)*int64(1+p.data.Posts[j].Words.Len())
	}
	return w
}

// ScatterShard resamples every assignment carried by the shard's edges
// (lines 19–26 of Alg 2) using the shard's own RNG stream. beat is
// ticked once per edge for the stall supervisor.
func (p *coldProgram) ScatterShard(g *gas.Graph[coldED], shard int, edges []int32, ctx *coldCtx, beat *gas.Beat) {
	r := p.shardRNG[shard]
	for _, eid := range edges {
		if !beat.Next() {
			return
		}
		e := &g.Edges[eid]
		if e.Data.link >= 0 {
			p.scatterLink(e, ctx, r)
		} else {
			p.scatterPosts(e, ctx, r)
		}
	}
}

// scatterPosts resamples the posts of one user–time edge with the
// alternating post kernel, reading the shared state's counters and
// derived caches as of the last merge boundary, and records the moves
// as sparse deltas against that snapshot.
func (p *coldProgram) scatterPosts(e *gas.Edge[coldED], ctx *coldCtx, r *rng.RNG) {
	st := p.st
	C, K, T, V := p.cfg.C, p.cfg.K, p.data.T, p.data.V
	u, t := int(e.Src), int(e.Dst)-p.data.U

	for _, j32 := range e.Data.posts {
		j := int(j32)
		oldC, oldZ := st.c[j], st.z[j]
		newC, newZ := st.samplePostAlternating(j, r, ctx.wc, ctx.wk)
		st.c[j], st.z[j] = newC, newZ

		// Record sparse deltas against the snapshot.
		if newC != oldC || newZ != oldZ {
			oldCK, newCK := oldC*K+oldZ, newC*K+newZ
			ctx.dNCK.add(oldCK, -1)
			ctx.dNCK.add(newCK, 1)
			ctx.dNCKT.add(oldCK*T+t, -1)
			ctx.dNCKT.add(newCK*T+t, 1)
		}
		if newC != oldC {
			ctx.dNCKSum.add(oldC, -1)
			ctx.dNCKSum.add(newC, 1)
			uBase := u * C
			ctx.dNIC.add(uBase+oldC, -1)
			ctx.dNIC.add(uBase+newC, 1)
		}
		if newZ != oldZ {
			words := &p.data.Posts[j].Words
			ids, counts, nTokens := words.IDs, words.Counts, words.Len()
			for i, v := range ids {
				ctx.dNKV.add(oldZ*V+v, -int64(counts[i]))
				ctx.dNKV.add(newZ*V+v, int64(counts[i]))
			}
			ctx.dNKVSum.add(oldZ, -int64(nTokens))
			ctx.dNKVSum.add(newZ, int64(nTokens))
		}
	}
}

// scatterLink resamples one link's endpoint pair with the link kernel
// against the snapshot counters and records the move as sparse deltas.
func (p *coldProgram) scatterLink(e *gas.Edge[coldED], ctx *coldCtx, r *rng.RNG) {
	st, C := p.st, p.cfg.C
	l := int(e.Data.link)
	oldA, oldB := st.s[l], st.sp[l]
	newA, newB := st.drawLink(l, r, ctx.wc)
	st.s[l], st.sp[l] = newA, newB
	if newA != oldA || newB != oldB {
		ctx.dNCC.add(oldA*C+oldB, -1)
		ctx.dNCC.add(newA*C+newB, 1)
	}
	if newA != oldA {
		ctx.dNSC.add(oldA, -1)
		ctx.dNSC.add(newA, 1)
		fb := int(e.Src) * C
		ctx.dNIC.add(fb+oldA, -1)
		ctx.dNIC.add(fb+newA, 1)
	}
	if newB != oldB {
		ctx.dNDC.add(oldB, -1)
		ctx.dNDC.add(newB, 1)
		tb := int(e.Dst) * C
		ctx.dNIC.add(tb+oldB, -1)
		ctx.dNIC.add(tb+newB, 1)
	}
}

// MergeBoundary folds every worker's buffered deltas into the shared
// state — O(total entries touched) — and refreshes exactly the derived
// cache entries whose underlying counters moved, so the caches stay
// bit-identical to a from-scratch rebuild without ever paying for one.
// The engine calls it at every batch boundary, so later batches sample
// against fresh counters. Worker order is fixed (ctxs index order) but immaterial:
// the deltas are integer additions, which commute.
func (p *coldProgram) MergeBoundary(ctxs []*coldCtx) {
	st := p.st
	d := st.dv
	C, K, T, V := p.cfg.C, p.cfg.K, p.data.T, p.data.V
	for _, ctx := range ctxs {
		dl := ctx.dNIC
		for _, i := range dl.touched {
			if v := dl.vals[i]; v != 0 {
				st.nIC[int(i)/C][int(i)%C] += int(v)
			}
			dl.vals[i] = 0
			dl.mark[i] = false
		}
		dl.touched = dl.touched[:0]

		// nIC totals never change when assignments move, so nICSum needs
		// no delta. nCK cells double as per-cell time totals (nCKTSum).
		dl = ctx.dNCK
		for _, i := range dl.touched {
			if v := dl.vals[i]; v != 0 {
				ck := int(i)
				st.nCK[ck/K][ck%K] += int(v)
				st.nCKTSum[ck] += int(v)
				d.refreshCKT(st, ck)
			}
			dl.vals[i] = 0
			dl.mark[i] = false
		}
		dl.touched = dl.touched[:0]

		dl = ctx.dNCKSum
		for _, i := range dl.touched {
			if v := dl.vals[i]; v != 0 {
				st.nCKSum[i] += int(v)
				d.refreshCK(st, int(i))
			}
			dl.vals[i] = 0
			dl.mark[i] = false
		}
		dl.touched = dl.touched[:0]

		dl = ctx.dNCKT
		for _, i := range dl.touched {
			if v := dl.vals[i]; v != 0 {
				ckt := int(i)
				st.nCKT[ckt/T][ckt%T] += int(v)
			}
			dl.vals[i] = 0
			dl.mark[i] = false
		}
		dl.touched = dl.touched[:0]

		dl = ctx.dNKV
		for _, i := range dl.touched {
			if v := dl.vals[i]; v != 0 {
				kv := int(i)
				st.nKV[kv/V][kv%V] += int(v)
			}
			dl.vals[i] = 0
			dl.mark[i] = false
		}
		dl.touched = dl.touched[:0]

		dl = ctx.dNKVSum
		for _, i := range dl.touched {
			if v := dl.vals[i]; v != 0 {
				st.nKVSum[i] += int(v)
				d.refreshKV(st, int(i))
			}
			dl.vals[i] = 0
			dl.mark[i] = false
		}
		dl.touched = dl.touched[:0]

		dl = ctx.dNCC
		for _, i := range dl.touched {
			if v := dl.vals[i]; v != 0 {
				cc := int(i)
				st.nCC[cc/C][cc%C] += int(v)
			}
			dl.vals[i] = 0
			dl.mark[i] = false
		}
		dl.touched = dl.touched[:0]

		dl = ctx.dNSC
		for _, i := range dl.touched {
			if v := dl.vals[i]; v != 0 {
				st.nSC[i] += int(v)
			}
			dl.vals[i] = 0
			dl.mark[i] = false
		}
		dl.touched = dl.touched[:0]

		dl = ctx.dNDC
		for _, i := range dl.touched {
			if v := dl.vals[i]; v != 0 {
				st.nDC[i] += int(v)
			}
			dl.vals[i] = 0
			dl.mark[i] = false
		}
		dl.touched = dl.touched[:0]
	}
}

// parallelSampler adapts the GAS sampler (cfg.Workers goroutine workers
// standing in for GraphLab nodes) to the runtime's sweeper interface.
type parallelSampler struct {
	prog   *coldProgram
	engine *gas.Engine[coldED, *coldCtx]
	r      *rng.RNG // main stream; only consumed during initialisation
}

// buildColdGraph lays the dataset out as the bipartite graph of Fig 4
// in canonical order: user–time post edges grouped by user (then time),
// so contiguous shard spans cover runs of consecutive users and one
// user's nIC row stays hot inside one worker, followed by the link
// edges in dataset order. The order — and therefore the shard plan and
// the sampled chain — is a pure function of the dataset.
func buildColdGraph(data *corpus.Dataset, cfg Config) *gas.Graph[coldED] {
	g := gas.NewGraph[coldED](data.U + data.T)
	order := make([]int32, len(data.Posts))
	for j := range order {
		order[j] = int32(j)
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := &data.Posts[order[a]], &data.Posts[order[b]]
		if pa.User != pb.User {
			return pa.User < pb.User
		}
		if pa.Time != pb.Time {
			return pa.Time < pb.Time
		}
		return order[a] < order[b]
	})
	eid := int32(-1)
	lastU, lastT := -1, -1
	for _, j := range order {
		post := &data.Posts[j]
		if post.User != lastU || post.Time != lastT {
			eid = g.AddEdge(int32(post.User), int32(data.U+post.Time), coldED{link: -1})
			lastU, lastT = post.User, post.Time
		}
		g.Edges[eid].Data.posts = append(g.Edges[eid].Data.posts, j)
	}
	if cfg.UseLinks {
		for l, e := range data.Links {
			g.AddEdge(int32(e.From), int32(e.To), coldED{link: int32(l)})
		}
	}
	g.Finalize()
	return g
}

func newParallelSampler(data *corpus.Dataset, cfg Config, resume *Checkpoint, gm *gas.Metrics, sp *gas.StallPolicy) (*parallelSampler, error) {
	r := rng.New(cfg.Seed)
	var st *state
	if resume == nil {
		// Random initialisation — the same draw order as the serial
		// sampler, so serial and parallel runs start from one chain.
		st = newState(data, cfg, r)
	} else {
		var err error
		st, err = stateFromAssignments(data, cfg, resume.C, resume.Z, resume.S, resume.SP)
		if err != nil {
			return nil, err
		}
	}
	st.ensureDerived()
	prog := &coldProgram{cfg: cfg, data: data, st: st}

	engine := gas.NewEngine[coldED, *coldCtx](buildColdGraph(data, cfg), prog, cfg.Workers)
	prog.shardRNG = make([]*rng.RNG, engine.NumShards())
	for i := range prog.shardRNG {
		prog.shardRNG[i] = rng.New(cfg.Seed + 0x9e3779b9*uint64(i+1))
	}
	if gm != nil {
		engine.SetMetrics(gm)
	}
	if sp != nil {
		engine.SetStallPolicy(sp)
	}
	p := &parallelSampler{prog: prog, engine: engine, r: r}
	if resume != nil {
		if err := p.restoreRNG(resume.RNG); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *parallelSampler) sweep() (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("core: parallel sweep panicked: %v", rec)
		}
	}()
	return p.engine.Step()
}

// The shared state is always merge-fresh, so likelihood monitoring,
// estimation and health probes read it directly — no per-sweep
// materialisation or counter rebuild.
func (p *parallelSampler) logLikelihood() float64 { return p.prog.st.logLikelihood() }
func (p *parallelSampler) estimate() *Model       { return p.prog.st.estimate() }
func (p *parallelSampler) health() string         { return p.prog.st.negativeCounter() }

// engineStats exposes the engine's accumulated scatter timing (busy,
// barrier, serial merge, per-batch critical path) for the bench layer.
func (p *parallelSampler) engineStats() gas.EngineStats { return p.engine.Stats() }

// resetEngineStats clears the accumulated timing (e.g. after warmup).
func (p *parallelSampler) resetEngineStats() { p.engine.ResetStats() }

func (p *parallelSampler) rngStates() [][4]uint64 {
	states := make([][4]uint64, 0, 1+len(p.prog.shardRNG))
	states = append(states, p.r.State())
	for _, sr := range p.prog.shardRNG {
		states = append(states, sr.State())
	}
	return states
}

func (p *parallelSampler) restoreRNG(states [][4]uint64) error {
	n := len(p.prog.shardRNG)
	if len(states) != 1+n {
		return fmt.Errorf("core: parallel sampler expects %d RNG streams (1 main + %d shard streams), checkpoint has %d", 1+n, n, len(states))
	}
	p.r.Restore(states[0])
	for i, sr := range p.prog.shardRNG {
		sr.Restore(states[i+1])
	}
	return nil
}

func (p *parallelSampler) reseed(salt uint64) {
	p.r = rng.New(p.r.Uint64() ^ salt)
	for i, sr := range p.prog.shardRNG {
		p.prog.shardRNG[i] = rng.New(sr.Uint64() ^ salt)
	}
}

func (p *parallelSampler) assignments() (c, z, s, sp []int) {
	st := p.prog.st
	return st.c, st.z, st.s, st.sp
}

func (p *parallelSampler) setAssignments(c, z, s, sp []int) error {
	st := p.prog.st
	if err := validateAssignments(p.prog.data, p.prog.cfg, c, z, s, sp); err != nil {
		return err
	}
	copy(st.c, c)
	copy(st.z, z)
	if p.prog.cfg.UseLinks {
		copy(st.s, s)
		copy(st.sp, sp)
	}
	st.rebuildCounts()
	// A failed superstep may have died between merge boundaries: drop
	// buffered deltas so the next merge starts from a clean slate.
	for _, ctx := range p.engine.Ctxs() {
		ctx.resetDeltas()
	}
	return nil
}
