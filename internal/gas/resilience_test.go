package gas

import (
	"strings"
	"testing"

	"github.com/cold-diffusion/cold/internal/faultinject"
)

// panicking arms p to panic with "<phase> boom" in the scatter or the
// boundary merge, to verify that worker goroutine crashes surface as
// Step errors instead of killing the process.
func panicking(p *testProg, phase string) {
	switch phase {
	case "scatter":
		p.onEdge = func(int32) { panic("scatter boom") }
	case "merge":
		p.onMerge = func() { panic("merge boom") }
	}
}

func TestStepContainsPanics(t *testing.T) {
	for _, phase := range []string{"scatter", "merge"} {
		for _, workers := range []int{1, 4} {
			g := buildTestGraph()
			p := newTestProg(g)
			panicking(p, phase)
			err := NewEngine(g, p, workers).Step()
			if err == nil {
				t.Fatalf("%s/%d workers: panic not converted to error", phase, workers)
			}
			if !strings.Contains(err.Error(), phase+" boom") {
				t.Fatalf("%s/%d workers: error %q lost the panic message", phase, workers, err)
			}
		}
	}
}

func TestStepHealthyAfterContainedPanic(t *testing.T) {
	// A program that panics once, then behaves: the engine itself must
	// stay usable for the caller's rollback-and-retry.
	g := buildTestGraph()
	p := newTestProg(g)
	panicking(p, "scatter")
	e := NewEngine(g, p, 2)
	if err := e.Step(); err == nil {
		t.Fatal("first step should fail")
	}
	p.onEdge = nil
	p.visits = 0
	for _, c := range e.Ctxs() {
		c.visits = 0 // the caller's rollback
	}
	if err := e.Step(); err != nil {
		t.Fatalf("engine unusable after contained panic: %v", err)
	}
	if p.visits != len(g.Edges) {
		t.Fatalf("recovered step scattered %d edges, want %d", p.visits, len(g.Edges))
	}
}

func TestScatterWorkerFaultPoint(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Set(faultinject.GasScatterWorker, func(args ...any) {
		if args[0].(int) == 0 {
			panic("injected worker crash")
		}
	})
	g := buildTestGraph()
	e := NewEngine(g, newTestProg(g), 2)
	err := e.Step()
	if err == nil || !strings.Contains(err.Error(), "injected worker crash") {
		t.Fatalf("injected crash not reported: %v", err)
	}
	faultinject.Reset()
	if err := e.Step(); err != nil {
		t.Fatalf("engine unusable after injected crash: %v", err)
	}
}
