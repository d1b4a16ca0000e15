package gas

import (
	"testing"

	"github.com/cold-diffusion/cold/internal/rng"
)

// testProg is the sharded program the engine tests drive. Edge data is
// the edge's scatter weight. It records which shard scattered each edge
// (the schedule fingerprint; writes are race-free because each edge
// belongs to exactly one shard, and a shard runs on one worker per
// batch), counts visits in the worker contexts and folds them at every
// boundary. The optional hooks inject panics, hangs and delays.
type testProg struct {
	shardOf    []int64
	visits     int
	boundaries int
	onEdge     func(eid int32) // runs before each edge's scatter
	onMerge    func()          // runs at the start of each boundary merge
}

type testCtx struct{ visits int }

func newTestProg(g *Graph[int64]) *testProg {
	return &testProg{shardOf: make([]int64, len(g.Edges))}
}

func (p *testProg) NewCtx(int) *testCtx { return &testCtx{} }

func (p *testProg) EdgeWeight(g *Graph[int64], eid int32, e *Edge[int64]) int64 { return e.Data }

func (p *testProg) ScatterShard(g *Graph[int64], shard int, edges []int32, ctx *testCtx, beat *Beat) {
	for _, eid := range edges {
		if !beat.Next() {
			return
		}
		if p.onEdge != nil {
			p.onEdge(eid)
		}
		p.shardOf[eid] = int64(shard)
		ctx.visits++
	}
}

func (p *testProg) MergeBoundary(ctxs []*testCtx) {
	if p.onMerge != nil {
		p.onMerge()
	}
	p.boundaries++
	for _, c := range ctxs {
		p.visits += c.visits
		c.visits = 0
	}
}

func buildTestGraph() *Graph[int64] {
	g := NewGraph[int64](5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	g.AddEdge(3, 0, 1)
	// vertex 4 isolated
	g.Finalize()
	return g
}

// degreeProgram keeps per-vertex state the incremental way: workers
// count endpoint visits in their contexts, and the boundary merge folds
// them into the vertex degrees.
type degreeProgram struct {
	degree        []int
	mergedCtxSeen int
}

type degCtx struct{ deg []int }

func (p *degreeProgram) NewCtx(int) *degCtx { return &degCtx{deg: make([]int, len(p.degree))} }

func (p *degreeProgram) EdgeWeight(*Graph[int64], int32, *Edge[int64]) int64 { return 1 }

func (p *degreeProgram) ScatterShard(g *Graph[int64], _ int, edges []int32, ctx *degCtx, beat *Beat) {
	for _, eid := range edges {
		if !beat.Next() {
			return
		}
		e := &g.Edges[eid]
		ctx.deg[e.Src]++
		ctx.deg[e.Dst]++
	}
}

func (p *degreeProgram) MergeBoundary(ctxs []*degCtx) {
	p.mergedCtxSeen = len(ctxs)
	for _, c := range ctxs {
		for v, d := range c.deg {
			p.degree[v] += d
			c.deg[v] = 0
		}
	}
}

func TestEngineDegrees(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		g := buildTestGraph()
		p := &degreeProgram{degree: make([]int, 5)}
		e := NewEngine(g, p, workers)
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		wantDeg := []int{3, 2, 2, 1, 0}
		for v, want := range wantDeg {
			if p.degree[v] != want {
				t.Fatalf("workers=%d: degree[%d] = %d, want %d", workers, v, p.degree[v], want)
			}
		}
		if p.mergedCtxSeen != e.Workers() {
			t.Fatalf("workers=%d: merge saw %d contexts", workers, p.mergedCtxSeen)
		}
	}
}

func TestEngineMultipleSteps(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		g := buildTestGraph()
		p := newTestProg(g)
		e := NewEngine(g, p, workers)
		for i := 0; i < 3; i++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if p.visits != 3*len(g.Edges) {
			t.Fatalf("workers=%d: 3 steps scattered %d edge visits, want %d", workers, p.visits, 3*len(g.Edges))
		}
		if e.Workers() != workers || len(e.Ctxs()) != workers {
			t.Fatalf("workers=%d: engine reports %d workers, %d contexts", workers, e.Workers(), len(e.Ctxs()))
		}
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := NewGraph[string](2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	g.AddEdge(0, 5, "x")
}

func TestAddEdgeAfterFinalizePanics(t *testing.T) {
	g := NewGraph[string](2)
	g.Finalize()
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge after Finalize did not panic")
		}
	}()
	g.AddEdge(0, 1, "x")
}

func TestIncidentIndex(t *testing.T) {
	g := buildTestGraph()
	inc0 := g.Incident(0)
	if len(inc0) != 3 {
		t.Fatalf("vertex 0 incident %v", inc0)
	}
	if len(g.Incident(4)) != 0 {
		t.Fatal("isolated vertex has incident edges")
	}
}

func TestColorEdgesIsProper(t *testing.T) {
	r := rng.New(7)
	n := 30
	g := NewGraph[string](n)
	for i := 0; i < 120; i++ {
		a, b := int32(r.Intn(n)), int32(r.Intn(n))
		if a != b {
			g.AddEdge(a, b, "")
		}
	}
	g.Finalize()
	classes := colorEdges(g)
	seenEdges := 0
	for _, class := range classes {
		// Within a class, no two edges share an endpoint.
		touched := make(map[int32]bool)
		for _, id := range class {
			e := g.Edges[id]
			if touched[e.Src] || touched[e.Dst] {
				t.Fatalf("colour class has two edges sharing a vertex")
			}
			touched[e.Src] = true
			touched[e.Dst] = true
			seenEdges++
		}
	}
	if seenEdges != len(g.Edges) {
		t.Fatalf("colouring covered %d of %d edges", seenEdges, len(g.Edges))
	}
}
