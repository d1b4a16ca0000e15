package core

import (
	"testing"

	"github.com/cold-diffusion/cold/internal/stats"
	"github.com/cold-diffusion/cold/internal/synth"
)

func TestParallelTrainerMatchesSerialQuality(t *testing.T) {
	cfg := synth.Small(51)
	data, gt, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	serialCfg := DefaultConfig(cfg.C, cfg.K)
	serialCfg.Iterations, serialCfg.BurnIn, serialCfg.Seed = 40, 25, 3
	serial, serialStats, err := TrainWithStats(data, serialCfg)
	if err != nil {
		t.Fatal(err)
	}

	parCfg := serialCfg
	parCfg.Workers = 4
	par, parStats, err := TrainWithStats(data, parCfg)
	if err != nil {
		t.Fatal(err)
	}

	nmiOf := func(m *Model) float64 {
		pred := make([]int, data.U)
		for i := range pred {
			_, pred[i] = stats.Max(m.Pi[i])
		}
		return stats.NMI(pred, gt.Primary)
	}
	sNMI, pNMI := nmiOf(serial), nmiOf(par)
	if pNMI < sNMI-0.25 {
		t.Fatalf("parallel community recovery degraded: serial NMI %.3f, parallel %.3f", sNMI, pNMI)
	}

	// Both runs must converge: the final likelihood should clearly beat
	// the initial one.
	for name, st := range map[string]*TrainStats{"serial": serialStats, "parallel": parStats} {
		if st.Likelihood[len(st.Likelihood)-1] <= st.Likelihood[0] {
			t.Fatalf("%s likelihood did not improve", name)
		}
	}
}

func TestParallelDeterministicForFixedWorkers(t *testing.T) {
	cfg := synth.Config{U: 40, C: 3, K: 4, T: 8, V: 80,
		PostsPerUser: 6, WordsPerPost: 6, LinksPerUser: 4, Seed: 5}
	run := func() *Model {
		data, _, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mcfg := DefaultConfig(3, 4)
		mcfg.Iterations, mcfg.BurnIn, mcfg.Workers, mcfg.Seed = 10, 5, 3, 7
		m, err := Train(data, mcfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	for c := range a.Theta {
		for k := range a.Theta[c] {
			if a.Theta[c][k] != b.Theta[c][k] {
				t.Fatal("parallel training not deterministic for fixed workers")
			}
		}
	}
}

func TestParallelSingleWorkerRuns(t *testing.T) {
	data, _, err := synth.Generate(synth.Config{U: 30, C: 3, K: 3, T: 6, V: 60,
		PostsPerUser: 5, WordsPerPost: 5, LinksPerUser: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Exercise the GAS path explicitly with Workers forced through the
	// parallel entry point.
	mcfg := DefaultConfig(3, 3)
	mcfg.Iterations, mcfg.BurnIn = 6, 3
	mcfg.Workers = 2
	m, st, err := TrainWithStats(data, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sweeps != 6 || st.Samples == 0 {
		t.Fatalf("stats %+v", st)
	}
	for c := range m.Theta {
		if !stats.IsSimplex(m.Theta[c], 1e-9) {
			t.Fatal("parallel estimate not a distribution")
		}
	}
}

func TestParallelNoLink(t *testing.T) {
	data, _, err := synth.Generate(synth.Config{U: 30, C: 3, K: 3, T: 6, V: 60,
		PostsPerUser: 5, WordsPerPost: 5, LinksPerUser: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	mcfg := DefaultConfig(3, 3)
	mcfg.Iterations, mcfg.BurnIn = 6, 3
	mcfg.Workers = 2
	mcfg.UseLinks = false
	m, err := Train(data, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	for a := range m.Eta {
		for b := range m.Eta[a] {
			if m.Eta[a][b] != m.Eta[0][0] {
				t.Fatal("parallel NoLink learned from links")
			}
		}
	}
}

// TestParallelMergedStateConsistent sweeps the parallel sampler and then
// recomputes every counter from the merged assignments: the sparse-delta
// folds must leave the shared state exactly where a from-scratch rebuild
// would put it (including derived float caches, which checkInvariants
// re-derives through rebuildCounts).
func TestParallelMergedStateConsistent(t *testing.T) {
	data, _, err := synth.Generate(synth.Config{U: 30, C: 3, K: 3, T: 6, V: 60,
		PostsPerUser: 5, WordsPerPost: 5, LinksPerUser: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(3, 3).withDefaults()
	cfg.Workers = 2
	smp, err := newParallelSampler(data, cfg, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := smp.sweep(); err != nil {
			t.Fatal(err)
		}
	}
	if err := smp.prog.st.checkInvariants(); err != nil {
		t.Fatalf("merged state inconsistent: %v", err)
	}
}

// TestParallelBitIdenticalAcrossWorkers is the determinism matrix: the
// parallel sampler must produce bit-identical assignments for workers ∈
// {1, 2, 4, 8} on the small and medium presets. The
// 1-worker leg is the serial reference execution of the shard schedule,
// so agreement with it is agreement with the serial chain.
func TestParallelBitIdenticalAcrossWorkers(t *testing.T) {
	presets := []struct {
		name string
		cfg  synth.Config
	}{
		{"small", synth.Small(21)},
		{"medium", synth.Medium(22)},
	}
	if testing.Short() {
		presets = presets[:1]
	}
	workers := []int{1, 2, 4, 8}
	for _, p := range presets {
		data, _, err := synth.Generate(p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var refC, refZ, refS, refSP []int
		for _, w := range workers {
			cfg := DefaultConfig(p.cfg.C, p.cfg.K).withDefaults()
			cfg.Workers, cfg.Seed = w, 7
			smp, err := newParallelSampler(data, cfg, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			sweeps := 3
			if p.name == "medium" {
				sweeps = 2
			}
			for i := 0; i < sweeps; i++ {
				if err := smp.sweep(); err != nil {
					t.Fatal(err)
				}
			}
			c, z, s, sp := smp.assignments()
			if w == 1 {
				refC = append([]int(nil), c...)
				refZ = append([]int(nil), z...)
				refS = append([]int(nil), s...)
				refSP = append([]int(nil), sp...)
				continue
			}
			for name, pair := range map[string][2][]int{
				"c": {refC, c}, "z": {refZ, z}, "s": {refS, s}, "sp": {refSP, sp},
			} {
				for i := range pair[0] {
					if pair[0][i] != pair[1][i] {
						t.Fatalf("%s: %s[%d] differs between 1 and %d workers: %d vs %d",
							p.name, name, i, w, pair[0][i], pair[1][i])
					}
				}
			}
		}
	}
}

// TestParallelSweepZeroAllocs is the parallel twin of the serial kernel
// alloc tests: after the first sweep has populated the shard plan and
// worker pool, a steady-state sweep must not touch the heap.
func TestParallelSweepZeroAllocs(t *testing.T) {
	data, _, err := synth.Generate(synth.Config{U: 40, C: 3, K: 4, T: 8, V: 80,
		PostsPerUser: 6, WordsPerPost: 6, LinksPerUser: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		cfg := DefaultConfig(3, 4).withDefaults()
		cfg.Workers = w
		smp, err := newParallelSampler(data, cfg, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := smp.sweep(); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(10, func() {
			if err := smp.sweep(); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("workers=%d: parallel sweep allocates %.2f objects, want 0", w, avg)
		}
	}
}

func TestChromaticTrainerWorks(t *testing.T) {
	data, _, err := synth.Generate(synth.Config{U: 40, C: 3, K: 4, T: 8, V: 80,
		PostsPerUser: 6, WordsPerPost: 6, LinksPerUser: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(3, 4)
	cfg.Iterations, cfg.BurnIn, cfg.Workers, cfg.Seed = 12, 6, 3, 7
	m, st, err := TrainWithStats(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Likelihood[len(st.Likelihood)-1] <= st.Likelihood[0] {
		t.Fatal("chromatic training did not improve likelihood")
	}
	for c := range m.Theta {
		if !stats.IsSimplex(m.Theta[c], 1e-9) {
			t.Fatal("chromatic estimate not a distribution")
		}
	}
}
