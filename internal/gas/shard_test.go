package gas

import (
	"strings"
	"testing"
)

// --- plan construction -------------------------------------------------

func planWeights(n int) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1 + int64(i%13)
	}
	return w
}

func TestBuildShardPlanCoversEveryEdgeInOrder(t *testing.T) {
	const n = 500
	class := make([]int32, n)
	for i := range class {
		class[i] = int32(i)
	}
	plan := buildShardPlan([][]int32{class}, planWeights(n))

	if len(plan.batches) != 1 {
		t.Fatalf("one class should make one batch, got %d", len(plan.batches))
	}
	var flat []int32
	seen := map[int]bool{}
	for _, sh := range plan.batches[0].shards {
		if seen[sh.id] {
			t.Fatalf("shard id %d appears twice", sh.id)
		}
		seen[sh.id] = true
		flat = append(flat, sh.edges...)
	}
	if len(flat) != n {
		t.Fatalf("plan covers %d edges, want %d", len(flat), n)
	}
	for i, eid := range flat {
		if eid != int32(i) {
			t.Fatalf("edge order broken at %d: got %d", i, eid)
		}
	}
	if plan.shards != len(plan.batches[0].shards) {
		t.Fatalf("plan.shards %d != shard count %d", plan.shards, len(plan.batches[0].shards))
	}
}

func TestBuildShardPlanBalancesWeight(t *testing.T) {
	const n = 500
	class := make([]int32, n)
	for i := range class {
		class[i] = int32(i)
	}
	weights := planWeights(n)
	var total, maxEdge int64
	for _, w := range weights {
		total += w
		if w > maxEdge {
			maxEdge = w
		}
	}
	plan := buildShardPlan([][]int32{class}, weights)

	ns := len(plan.batches[0].shards)
	if ns != shardsPerBatch {
		t.Fatalf("single class split into %d shards, want %d", ns, shardsPerBatch)
	}
	ideal := total / int64(ns)
	for _, sh := range plan.batches[0].shards {
		var w int64
		for _, eid := range sh.edges {
			w += weights[eid]
		}
		if w > 2*ideal+maxEdge {
			t.Fatalf("shard %d weight %d far above ideal %d", sh.id, w, ideal)
		}
	}
}

func TestBuildShardPlanCoalescesClasses(t *testing.T) {
	const classes, per = 40, 5
	var cls [][]int32
	eid := int32(0)
	for c := 0; c < classes; c++ {
		var class []int32
		for i := 0; i < per; i++ {
			class = append(class, eid)
			eid++
		}
		cls = append(cls, class)
	}
	weights := make([]int64, int(eid))
	for i := range weights {
		weights[i] = 1
	}

	tight := buildShardPlan(cls, weights)
	if len(tight.batches) > maxScatterBatches+1 {
		t.Fatalf("coalesced plan has %d batches, want <= %d", len(tight.batches), maxScatterBatches+1)
	}
	// Coalescing must preserve the global edge order.
	var flat []int32
	for _, b := range tight.batches {
		for _, sh := range b.shards {
			flat = append(flat, sh.edges...)
		}
	}
	if len(flat) != int(eid) {
		t.Fatalf("coalesced plan covers %d edges, want %d", len(flat), eid)
	}
	for i, e := range flat {
		if e != int32(i) {
			t.Fatalf("coalesced edge order broken at %d: got %d", i, e)
		}
	}
}

// --- sharded engine execution ------------------------------------------

func shardTestGraph() *Graph[int64] {
	const nv, ne = 60, 400
	g := NewGraph[int64](nv)
	for i := 0; i < ne; i++ {
		g.AddEdge(int32(i%nv), int32((i*7+1)%nv), 1+int64(i%13))
	}
	g.Finalize()
	return g
}

func runShardProg(t *testing.T, workers int) ([]int64, int, EngineStats) {
	t.Helper()
	g := shardTestGraph()
	p := newTestProg(g)
	eng := NewEngine(g, p, workers)
	for i := 0; i < 2; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return p.shardOf, eng.NumShards(), eng.Stats()
}

// TestShardScheduleIndependentOfWorkers pins the property the parallel
// sampler's determinism rests on: the shard plan — which shard owns
// which edge, and how many shards exist — is a function of the graph
// alone, never of the worker count.
func TestShardScheduleIndependentOfWorkers(t *testing.T) {
	ref, refShards, _ := runShardProg(t, 1)
	if refShards < 2 {
		t.Fatalf("want a multi-shard plan, got %d", refShards)
	}
	for _, w := range []int{2, 4, 8} {
		got, shards, _ := runShardProg(t, w)
		if shards != refShards {
			t.Fatalf("shard count changed with workers: %d at w=1, %d at w=%d", refShards, shards, w)
		}
		for eid := range ref {
			if got[eid] != ref[eid] {
				t.Fatalf("edge %d owned by shard %d at w=1 but %d at w=%d", eid, ref[eid], got[eid], w)
			}
		}
	}
}

func TestShardEngineStats(t *testing.T) {
	_, _, stats := runShardProg(t, 2)
	if stats.Supersteps != 2 {
		t.Fatalf("Supersteps = %d, want 2", stats.Supersteps)
	}
	if stats.BusySeconds <= 0 {
		t.Fatalf("BusySeconds = %v, want > 0", stats.BusySeconds)
	}
	if len(stats.BatchBusy) != len(stats.BatchMaxShard) || len(stats.BatchBusy) == 0 {
		t.Fatalf("batch rows: busy %d, maxShard %d", len(stats.BatchBusy), len(stats.BatchMaxShard))
	}
	// The projection must be monotone non-increasing in workers and never
	// better than the critical path.
	prev := stats.ProjectedSeconds(1)
	if prev < stats.SerialSeconds {
		t.Fatalf("projection %v below serial floor %v", prev, stats.SerialSeconds)
	}
	for _, w := range []int{2, 4, 8, 64} {
		cur := stats.ProjectedSeconds(w)
		if cur > prev+1e-12 {
			t.Fatalf("projection increased with workers: %v at fewer, %v at %d", prev, cur, w)
		}
		prev = cur
	}

	g := shardTestGraph()
	eng := NewEngine(g, newTestProg(g), 2)
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	eng.ResetStats()
	s := eng.Stats()
	if s.Supersteps != 0 || s.BusySeconds != 0 || s.BarrierSeconds != 0 || s.SerialSeconds != 0 {
		t.Fatalf("ResetStats left residue: %+v", s)
	}
}

func TestBoundaryMergeRunsPerBatch(t *testing.T) {
	g := shardTestGraph()
	p := newTestProg(g)
	eng := NewEngine(g, p, 2)
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	batches := len(eng.Stats().BatchBusy)
	if batches < 2 {
		t.Fatalf("want multiple batches, got %d", batches)
	}
	if batches > maxScatterBatches+1 {
		t.Fatalf("coalescing failed: %d batches for maxScatterBatches=%d", batches, maxScatterBatches)
	}
	if p.boundaries != batches {
		t.Fatalf("MergeBoundary ran %d times for %d batches", p.boundaries, batches)
	}
}

// TestShardWorkerPanicBecomesError blows up one shard; the pool must
// surface it as an error from Step on both the inline and the goroutine
// path.
func TestShardWorkerPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := shardTestGraph()
		p := newTestProg(g)
		eng := NewEngine(g, p, workers)
		p.onEdge = func(eid int32) {
			if eid == 3 {
				panic("edge 3 exploded")
			}
		}
		err := eng.Step()
		if err == nil || !strings.Contains(err.Error(), "edge 3 exploded") {
			t.Fatalf("workers=%d: want panic error, got %v", workers, err)
		}
	}
}
