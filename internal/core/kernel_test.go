package core

import (
	"math"
	"testing"

	"github.com/cold-diffusion/cold/internal/rng"
	"github.com/cold-diffusion/cold/internal/synth"
)

// Tests for the factored linear-domain post kernel (gibbs.go) and its
// derived caches (kernelcache.go): the fast path must produce the same
// transition distribution as the log-domain reference, the caches must
// stay bit-identical to their defining counters across every mutation,
// and the per-post kernel must not touch the heap.

func kernelTestState(t *testing.T) (*state, *rng.RNG) {
	t.Helper()
	data, _, err := synth.Generate(synth.Small(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(6, 8).withDefaults()
	r := rng.New(99)
	st := newState(data, cfg, r)
	for i := 0; i < 3; i++ { // settle into a typical count configuration
		st.sweep(r)
	}
	return st, r
}

// TestFastKernelMatchesLogReference compares, post by post, the
// normalised transition distribution of the linear-domain fast kernel
// against the log-domain reference. The two compute the same product in
// different arithmetic, so they agree to rounding error; a mismatch
// beyond 1e-8 means the factorization dropped or duplicated a term.
func TestFastKernelMatchesLogReference(t *testing.T) {
	st, _ := kernelTestState(t)
	d := st.ensureDerived()
	fastProbs := make([]float64, st.cfg.C*st.cfg.K)
	checked := 0
	for j := range st.data.Posts {
		st.removePost(j)
		totalFast, ok := st.postJointWeightsFast(j, d)
		if ok {
			for i, w := range d.scr.wck {
				fastProbs[i] = w / totalFast
			}
			totalLog := st.postJointWeightsLog(j, d)
			for i, w := range d.scr.wck {
				if diff := math.Abs(fastProbs[i] - w/totalLog); diff > 1e-8 {
					t.Fatalf("post %d cell %d: fast %.17g vs log %.17g (|Δ|=%.3g)",
						j, i, fastProbs[i], w/totalLog, diff)
				}
			}
			checked++
		} else if st.data.Posts[j].Words.Len() <= fastTokenCap {
			t.Fatalf("post %d: fast path refused a short post (%d tokens)",
				j, st.data.Posts[j].Words.Len())
		}
		st.addPost(j)
	}
	if checked == 0 {
		t.Fatal("no post exercised the fast path")
	}
	t.Logf("compared %d/%d posts on the fast path", checked, len(st.data.Posts))
}

// TestDerivedCachesMatchCounters pins the kernelcache.go invariants: the
// cached denominators must equal (bit-identically, not approximately)
// the value recomputed from the integer counters, after sweeps, after
// mid-post mutations, and after a rebuildCounts rollback.
func TestDerivedCachesMatchCounters(t *testing.T) {
	st, r := kernelTestState(t)
	d := st.ensureDerived()

	check := func(stage string) {
		t.Helper()
		for c := range d.denomCK {
			want := float64(st.nCKSum[c]) + d.kAlpha
			if d.denomCK[c] != want || d.invCK[c] != 1/want {
				t.Fatalf("%s: denomCK[%d]=%v invCK=%v, want %v / %v",
					stage, c, d.denomCK[c], d.invCK[c], want, 1/want)
			}
		}
		for ck := range d.denomCKT {
			want := float64(st.nCKTSum[ck]) + d.tEps
			if d.denomCKT[ck] != want || d.invCKT[ck] != 1/want {
				t.Fatalf("%s: denomCKT[%d]=%v invCKT=%v, want %v / %v",
					stage, ck, d.denomCKT[ck], d.invCKT[ck], want, 1/want)
			}
		}
		for k := range d.denomKV {
			want := float64(st.nKVSum[k]) + d.vBeta
			if d.denomKV[k] != want {
				t.Fatalf("%s: denomKV[%d]=%v, want %v", stage, k, d.denomKV[k], want)
			}
		}
	}

	check("after warmup sweeps")

	// A post removed and re-added with a different assignment.
	st.removePost(0)
	check("post removed")
	st.c[0], st.z[0] = (st.c[0]+1)%st.cfg.C, (st.z[0]+1)%st.cfg.K
	st.addPost(0)
	check("post moved")

	// Link moves touch none of the cached counters; the invariants must
	// hold without any cache maintenance in addLink/removeLink.
	if st.cfg.UseLinks && len(st.data.Links) > 0 {
		st.removeLink(0)
		st.s[0], st.sp[0] = (st.s[0]+1)%st.cfg.C, (st.sp[0]+1)%st.cfg.C
		st.addLink(0)
		check("link moved")
	}

	// Rollback path: rebuildCounts must refresh entries that end at zero.
	for j := range st.c {
		st.c[j], st.z[j] = 0, 0 // collapse everything into one cell
	}
	st.rebuildCounts()
	check("after rebuildCounts collapse")

	st.sweep(r)
	check("after post-rollback sweep")
}

// TestSamplePostJointZeroAllocs proves the acceptance criterion: with
// the derived caches warmed, resampling a post performs zero heap
// allocations.
func TestSamplePostJointZeroAllocs(t *testing.T) {
	st, r := kernelTestState(t)
	d := st.ensureDerived()
	j := 0
	n := len(st.data.Posts)
	avg := testing.AllocsPerRun(200, func() {
		st.samplePostJoint(j, r, d)
		j = (j + 1) % n
	})
	if avg != 0 {
		t.Fatalf("samplePostJoint allocates %.2f objects per post, want 0", avg)
	}
}

// TestSampleLinkZeroAllocs does the same for the link kernel.
func TestSampleLinkZeroAllocs(t *testing.T) {
	st, r := kernelTestState(t)
	d := st.ensureDerived()
	if !st.cfg.UseLinks || len(st.data.Links) == 0 {
		t.Skip("preset has no links")
	}
	l := 0
	n := len(st.data.Links)
	avg := testing.AllocsPerRun(200, func() {
		st.sampleLink(l, r, d.scr.wc)
		l = (l + 1) % n
	})
	if avg != 0 {
		t.Fatalf("sampleLink allocates %.2f objects per link, want 0", avg)
	}
}

// TestLinkKernelMatchesSerialConditional pins the link kernel's
// self-exclusion. The sharded sampler evaluates Eq. (2) with the link
// still registered in its snapshot; on a fresh small-preset state with
// NegCorrection on, the kernel's normalised source and destination
// weights must equal, bit for bit, those of the serial path that
// removes the link, evaluates the conditional on the bare counters and
// adds it back. Every conditioning community is tried, so the
// destination pass is covered for a fresh source community too.
func TestLinkKernelMatchesSerialConditional(t *testing.T) {
	sc := synth.Small(21)
	data, _, err := synth.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(sc.C, sc.K).withDefaults()
	if !cfg.NegCorrection || len(data.Links) == 0 {
		t.Fatal("want NegCorrection on and a linked preset")
	}
	st := newState(data, cfg, rng.New(7))
	C := cfg.C
	got := make([]float64, C)
	want := make([]float64, C)
	// reference is the serial remove-evaluate-add conditional.
	reference := func(l int, source bool, other int) float64 {
		e := data.Links[l]
		st.removeLink(l)
		defer st.addLink(l)
		total := 0.0
		for c := 0; c < C; c++ {
			a, b, user := c, other, e.From
			if !source {
				a, b, user = other, c, e.To
			}
			n := float64(st.nCC[a][b])
			w := (float64(st.nIC[user][c]) + cfg.Rho) * (n + cfg.Lambda1) / (n + st.negMass(a, b) + cfg.Lambda1)
			want[c] = w
			total += w
		}
		return total
	}
	worst := 0.0
	for l := range data.Links {
		for _, source := range []bool{true, false} {
			for other := 0; other < C; other++ {
				gotTotal := st.linkWeights(l, source, other, got)
				wantTotal := reference(l, source, other)
				for c := range got {
					g, w := got[c]/gotTotal, want[c]/wantTotal
					if rel := math.Abs(g-w) / w; rel > worst {
						worst = rel
					}
					if g != w {
						t.Errorf("link %d source=%v other=%d community %d: kernel %.17g, serial %.17g",
							l, source, other, c, g, w)
					}
				}
			}
		}
		if t.Failed() {
			t.Fatalf("worst relative difference %.3g", worst)
		}
	}
}
