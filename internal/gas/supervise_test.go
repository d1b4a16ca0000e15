package gas

import (
	"errors"
	"testing"
	"time"

	"github.com/cold-diffusion/cold/internal/obs"
)

// A hung scatter worker is detected within the stall policy's bounds:
// Step returns an error wrapping ErrStalled instead of hanging forever,
// the stall is counted, and the poisoned engine refuses further
// supersteps without touching the (possibly still-mutating) state.
func TestHungWorkerDetectedAndEnginePoisoned(t *testing.T) {
	g := buildTestGraph()
	p := newTestProg(g)
	release := make(chan struct{})
	defer close(release) // unblock the leaked goroutine at test exit
	p.onEdge = func(eid int32) {
		if eid == 3 {
			<-release
		}
	}
	e := NewEngine(g, p, 2)
	m := NewMetrics(obs.NewRegistry())
	e.SetMetrics(m)
	e.SetStallPolicy(&StallPolicy{Grace: 30 * time.Millisecond})

	done := make(chan error, 1)
	go func() { done <- e.Step() }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStalled) {
			t.Fatalf("Step returned %v, want ErrStalled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Step hung despite the stall policy")
	}
	if got := m.WorkerStalls.Value(); got != 1 {
		t.Fatalf("WorkerStalls = %d, want 1", got)
	}
	// Poisoned: the next Step must fail instantly, not re-run batches.
	start := time.Now()
	if err := e.Step(); !errors.Is(err, ErrStalled) {
		t.Fatalf("poisoned Step returned %v, want ErrStalled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("poisoned Step took %v, want immediate return", d)
	}
}

// A hang on the first edge of the chromatic (colour-major) schedule is
// supervised and poisons the engine the same way.
func TestHungWorkerChromaticEngine(t *testing.T) {
	g := buildTestGraph()
	p := newTestProg(g)
	release := make(chan struct{})
	defer close(release)
	p.onEdge = func(eid int32) {
		if eid == 0 {
			<-release
		}
	}
	e := NewEngine(g, p, 2)
	e.SetStallPolicy(&StallPolicy{Grace: 30 * time.Millisecond})
	done := make(chan error, 1)
	go func() { done <- e.Step() }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrStalled) {
			t.Fatalf("Step returned %v, want ErrStalled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("chromatic Step hung despite the stall policy")
	}
	if err := e.Step(); !errors.Is(err, ErrStalled) {
		t.Fatalf("poisoned chromatic Step returned %v, want ErrStalled", err)
	}
}

// A program that makes steady but slow progress trips the batch
// deadline without any single worker ever going silent past the grace.
func TestPhaseDeadlineOverrun(t *testing.T) {
	g := buildTestGraph()
	p := newTestProg(g)
	p.onEdge = func(int32) { time.Sleep(30 * time.Millisecond) }
	e := NewEngine(g, p, 1)
	e.SetStallPolicy(&StallPolicy{Deadline: 25 * time.Millisecond})
	if err := e.Step(); !errors.Is(err, ErrStalled) {
		t.Fatalf("Step returned %v, want ErrStalled on deadline overrun", err)
	}
}

// Supervision must be an observer on healthy runs: same schedule as the
// unsupervised engine, no stalls counted, engine stays usable.
func TestSupervisedHealthyRunUnaffected(t *testing.T) {
	want, _, _ := runShardProg(t, 1)
	for _, workers := range []int{1, 2, 4} {
		g := shardTestGraph()
		p := newTestProg(g)
		e := NewEngine(g, p, workers)
		m := NewMetrics(obs.NewRegistry())
		e.SetMetrics(m)
		e.SetStallPolicy(&StallPolicy{Deadline: 10 * time.Second, Grace: 10 * time.Second})
		for step := 0; step < 3; step++ {
			if err := e.Step(); err != nil {
				t.Fatalf("workers=%d step %d: %v", workers, step, err)
			}
		}
		for eid := range want {
			if p.shardOf[eid] != want[eid] {
				t.Fatalf("workers=%d: edge %d scattered by shard %d, unsupervised %d", workers, eid, p.shardOf[eid], want[eid])
			}
		}
		if p.visits != 3*len(g.Edges) {
			t.Fatalf("workers=%d: scatter visited %d, want %d", workers, p.visits, 3*len(g.Edges))
		}
		if m.WorkerStalls.Value() != 0 {
			t.Fatalf("workers=%d: healthy run counted %d stalls", workers, m.WorkerStalls.Value())
		}
	}
}

// A panic inside a supervised block still surfaces as a contained
// error (not a stall, not a crash), and does not poison the engine.
func TestSupervisedPanicStillContained(t *testing.T) {
	g := buildTestGraph()
	p := newTestProg(g)
	panicking(p, "scatter")
	e := NewEngine(g, p, 2)
	e.SetStallPolicy(&StallPolicy{Grace: time.Second})
	err := e.Step()
	if err == nil {
		t.Fatal("panicking program returned nil error")
	}
	if errors.Is(err, ErrStalled) {
		t.Fatalf("panic misreported as stall: %v", err)
	}
	p.onEdge = nil
	if err := e.Step(); err != nil {
		t.Fatalf("engine unusable after contained panic: %v", err)
	}
}
