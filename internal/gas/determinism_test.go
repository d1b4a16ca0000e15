package gas

import (
	"testing"

	"github.com/cold-diffusion/cold/internal/rng"
)

// stochasticProgram mutates edge data with per-shard RNGs — the shape
// of the COLD sampler — so this test pins down that the engine is
// deterministic despite concurrency and dynamic shard-to-worker
// assignment.
type stochasticProgram struct {
	shardRNG []*rng.RNG
}

func (p *stochasticProgram) NewCtx(int) struct{} { return struct{}{} }

func (p *stochasticProgram) EdgeWeight(*Graph[uint64], int32, *Edge[uint64]) int64 { return 1 }

func (p *stochasticProgram) ScatterShard(g *Graph[uint64], shard int, edges []int32, _ struct{}, beat *Beat) {
	r := p.shardRNG[shard]
	for _, eid := range edges {
		if !beat.Next() {
			return
		}
		e := &g.Edges[eid]
		e.Data ^= r.Uint64()
	}
}

func (p *stochasticProgram) MergeBoundary([]struct{}) {}

func runStochastic(workers int, steps int) []uint64 {
	r := rng.New(3)
	n := 40
	g := NewGraph[uint64](n)
	for i := 0; i < 120; i++ {
		a, b := int32(r.Intn(n)), int32(r.Intn(n))
		if a != b {
			g.AddEdge(a, b, r.Uint64())
		}
	}
	g.Finalize()
	p := &stochasticProgram{}
	e := NewEngine(g, p, workers)
	for i := 0; i < e.NumShards(); i++ {
		p.shardRNG = append(p.shardRNG, rng.New(5+uint64(i)*7919))
	}
	for i := 0; i < steps; i++ {
		e.Step()
	}
	out := make([]uint64, len(g.Edges))
	for i := range g.Edges {
		out[i] = g.Edges[i].Data
	}
	return out
}

func TestEngineDeterministicForFixedWorkers(t *testing.T) {
	ref := runStochastic(1, 5)
	for _, workers := range []int{1, 2, 4} {
		a := runStochastic(workers, 5)
		b := runStochastic(workers, 5)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d: edge %d diverged between identical runs", workers, i)
			}
			// Randomness is keyed by shard, so the worker count must not
			// matter either.
			if a[i] != ref[i] {
				t.Fatalf("workers=%d: edge %d differs from the 1-worker run", workers, i)
			}
		}
	}
}
