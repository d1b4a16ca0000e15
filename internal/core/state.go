package core

import (
	"fmt"

	"github.com/cold-diffusion/cold/internal/corpus"
	"github.com/cold-diffusion/cold/internal/rng"
)

// state holds the latent assignments and the count matrices of the
// collapsed Gibbs sampler. Notation follows Table 1 / Appendix A of the
// paper; e.g. nIC[i][c] is n_i^{(c)}, the number of posts and link
// endpoints of user i assigned to community c.
type state struct {
	cfg  Config
	data *corpus.Dataset

	lambda0 float64
	nNeg    float64 // number of negative (absent) directed links

	// Latent assignments.
	c  []int // community of post j
	z  []int // topic of post j
	s  []int // community of the source endpoint of link l
	sp []int // community of the destination endpoint of link l

	// Count matrices.
	nIC     [][]int // [U][C] posts+link endpoints of user i in community c
	nICSum  []int   // [U]   n_i^{(·)}
	nCK     [][]int // [C][K] posts in community c with topic k
	nCKSum  []int   // [C]   n_c^{(·)}
	nCKT    [][]int // [C*K][T] time stamps from community c, topic k
	nCKTSum []int   // [C*K] n_{ck}^{(·)}
	nKV     [][]int // [K][V] word tokens assigned to topic k
	nKVSum  []int   // [K]   n_k^{(·)}
	nCC     [][]int // [C][C] positive links assigned to community pair
	nSC     []int   // [C] source link endpoints per community
	nDC     []int   // [C] destination link endpoints per community

	// dv caches the float denominators, log tables and sweep scratch of
	// the fast sampling kernel (see kernelcache.go). It is derived state:
	// a pure function of the counters above, built lazily on first use,
	// maintained by addPost/removePost, refreshed by rebuildCounts, and
	// never serialized.
	dv *derived
}

// negMass returns the negative-link pseudo-count for community pair
// (a, b). With NegCorrection it is the expected number of negative pairs
// landing on (a, b) under the current endpoint distribution — the
// quantity the paper's scalar λ₀ = κ·ln(n_neg/C²) approximates — which
// matters at laptop scale where λ₀ is otherwise dwarfed by the positive
// counts (see DESIGN.md); otherwise it is λ₀ itself.
func (st *state) negMass(a, b int) float64 {
	return st.negMassCounts(st.nSC[a], st.nDC[b])
}

// negMassCounts is negMass for explicit endpoint counts: src source
// endpoints in the pair's first community and dst destination endpoints
// in its second.
func (st *state) negMassCounts(src, dst int) float64 {
	if !st.cfg.NegCorrection {
		return st.lambda0
	}
	links := float64(len(st.data.Links))
	C := float64(st.cfg.C)
	wa := (float64(src) + 1) / (links + C)
	wb := (float64(dst) + 1) / (links + C)
	return st.nNeg * wa * wb
}

// newState builds zeroed count matrices and randomly initialises all
// latent assignments, updating the counters accordingly.
func newState(data *corpus.Dataset, cfg Config, r *rng.RNG) *state {
	C, K, T, V, U := cfg.C, cfg.K, data.T, data.V, data.U
	st := &state{
		cfg:     cfg,
		data:    data,
		lambda0: cfg.lambda0(U, len(data.Links)),
		nNeg:    negCount(U, len(data.Links)),
		c:       make([]int, len(data.Posts)),
		z:       make([]int, len(data.Posts)),
		nIC:     intMatrix(U, C),
		nICSum:  make([]int, U),
		nCK:     intMatrix(C, K),
		nCKSum:  make([]int, C),
		nCKT:    intMatrix(C*K, T),
		nCKTSum: make([]int, C*K),
		nKV:     intMatrix(K, V),
		nKVSum:  make([]int, K),
		nCC:     intMatrix(C, C),
		nSC:     make([]int, C),
		nDC:     make([]int, C),
	}
	if cfg.UseLinks {
		st.s = make([]int, len(data.Links))
		st.sp = make([]int, len(data.Links))
	}
	for j := range data.Posts {
		st.c[j] = r.Intn(C)
		st.z[j] = r.Intn(K)
		st.addPost(j)
	}
	if cfg.UseLinks {
		for l := range data.Links {
			st.s[l] = r.Intn(C)
			st.sp[l] = r.Intn(C)
			st.addLink(l)
		}
	}
	return st
}

// stateFromAssignments rebuilds a full sampler state from checkpointed
// latent assignments without consuming any randomness: the count matrices
// are pure functions of the assignments, so the result is bit-identical
// to the state the checkpoint was taken from.
func stateFromAssignments(data *corpus.Dataset, cfg Config, c, z, s, sp []int) (*state, error) {
	if err := validateAssignments(data, cfg, c, z, s, sp); err != nil {
		return nil, err
	}
	st := &state{cfg: cfg, data: data,
		lambda0: cfg.lambda0(data.U, len(data.Links)),
		nNeg:    negCount(data.U, len(data.Links))}
	st = newEmptyLike(st)
	copy(st.c, c)
	copy(st.z, z)
	if cfg.UseLinks {
		copy(st.s, s)
		copy(st.sp, sp)
	}
	st.rebuildCounts()
	return st, nil
}

// validateAssignments checks checkpointed latent assignments against a
// dataset and config before they are installed into a sampler.
func validateAssignments(data *corpus.Dataset, cfg Config, c, z, s, sp []int) error {
	if len(c) != len(data.Posts) || len(z) != len(data.Posts) {
		return fmt.Errorf("core: checkpoint has %d/%d post assignments, dataset has %d posts", len(c), len(z), len(data.Posts))
	}
	if cfg.UseLinks && (len(s) != len(data.Links) || len(sp) != len(data.Links)) {
		return fmt.Errorf("core: checkpoint has %d/%d link assignments, dataset has %d links", len(s), len(sp), len(data.Links))
	}
	for j := range c {
		if c[j] < 0 || c[j] >= cfg.C || z[j] < 0 || z[j] >= cfg.K {
			return fmt.Errorf("core: checkpoint post %d has assignment (%d,%d) out of range C=%d K=%d", j, c[j], z[j], cfg.C, cfg.K)
		}
	}
	if cfg.UseLinks {
		for l := range s {
			if s[l] < 0 || s[l] >= cfg.C || sp[l] < 0 || sp[l] >= cfg.C {
				return fmt.Errorf("core: checkpoint link %d has assignment (%d,%d) out of range C=%d", l, s[l], sp[l], cfg.C)
			}
		}
	}
	return nil
}

// rebuildCounts zeroes every counter and re-registers all assignments.
func (st *state) rebuildCounts() {
	zeroMatrix(st.nIC)
	zeroVec(st.nICSum)
	zeroMatrix(st.nCK)
	zeroVec(st.nCKSum)
	zeroMatrix(st.nCKT)
	zeroVec(st.nCKTSum)
	zeroMatrix(st.nKV)
	zeroVec(st.nKVSum)
	zeroMatrix(st.nCC)
	zeroVec(st.nSC)
	zeroVec(st.nDC)
	for j := range st.data.Posts {
		st.addPost(j)
	}
	if st.cfg.UseLinks {
		for l := range st.data.Links {
			st.addLink(l)
		}
	}
	// The incremental maintenance above never visits cache entries whose
	// final count is zero, so recompute them all from the counters.
	if st.dv != nil {
		st.dv.refresh(st)
	}
}

// negativeCounter returns the name of the first negative count matrix
// cell, or "" when all counters are sane. It is the cheap per-sweep
// health probe of the training runtime — a negative count means the
// sampler's add/remove bookkeeping has been corrupted.
func (st *state) negativeCounter() string {
	checks := []struct {
		name string
		vec  []int
	}{
		{"nICSum", st.nICSum}, {"nCKSum", st.nCKSum}, {"nCKTSum", st.nCKTSum},
		{"nKVSum", st.nKVSum}, {"nSC", st.nSC}, {"nDC", st.nDC},
	}
	for _, ch := range checks {
		for i, v := range ch.vec {
			if v < 0 {
				return fmt.Sprintf("%s[%d]=%d", ch.name, i, v)
			}
		}
	}
	mats := []struct {
		name string
		m    [][]int
	}{{"nIC", st.nIC}, {"nCK", st.nCK}, {"nCKT", st.nCKT}, {"nKV", st.nKV}, {"nCC", st.nCC}}
	for _, ch := range mats {
		for i := range ch.m {
			for j, v := range ch.m[i] {
				if v < 0 {
					return fmt.Sprintf("%s[%d][%d]=%d", ch.name, i, j, v)
				}
			}
		}
	}
	return ""
}

func zeroMatrix(m [][]int) {
	for i := range m {
		for j := range m[i] {
			m[i][j] = 0
		}
	}
}

func zeroVec(v []int) {
	for i := range v {
		v[i] = 0
	}
}

func intMatrix(rows, cols int) [][]int {
	backing := make([]int, rows*cols)
	m := make([][]int, rows)
	for i := range m {
		m[i], backing = backing[:cols:cols], backing[cols:]
	}
	return m
}

// addPost registers post j's current (c, z) assignment in all counters.
func (st *state) addPost(j int) {
	p := &st.data.Posts[j]
	c, z := st.c[j], st.z[j]
	st.nIC[p.User][c]++
	st.nICSum[p.User]++
	st.nCK[c][z]++
	st.nCKSum[c]++
	ck := c*st.cfg.K + z
	st.nCKT[ck][p.Time]++
	st.nCKTSum[ck]++
	p.Words.Each(func(v, count int) {
		st.nKV[z][v] += count
		st.nKVSum[z] += count
	})
	if st.dv != nil {
		st.dv.postMoved(st, c, z, ck)
	}
}

// removePost unregisters post j's current (c, z) assignment.
func (st *state) removePost(j int) {
	p := &st.data.Posts[j]
	c, z := st.c[j], st.z[j]
	st.nIC[p.User][c]--
	st.nICSum[p.User]--
	st.nCK[c][z]--
	st.nCKSum[c]--
	ck := c*st.cfg.K + z
	st.nCKT[ck][p.Time]--
	st.nCKTSum[ck]--
	p.Words.Each(func(v, count int) {
		st.nKV[z][v] -= count
		st.nKVSum[z] -= count
	})
	if st.dv != nil {
		st.dv.postMoved(st, c, z, ck)
	}
}

// addLink registers link l's current (s, s') assignment.
func (st *state) addLink(l int) {
	e := st.data.Links[l]
	a, b := st.s[l], st.sp[l]
	st.nIC[e.From][a]++
	st.nICSum[e.From]++
	st.nIC[e.To][b]++
	st.nICSum[e.To]++
	st.nCC[a][b]++
	st.nSC[a]++
	st.nDC[b]++
}

// removeLink unregisters link l's current (s, s') assignment.
func (st *state) removeLink(l int) {
	e := st.data.Links[l]
	a, b := st.s[l], st.sp[l]
	st.nIC[e.From][a]--
	st.nICSum[e.From]--
	st.nIC[e.To][b]--
	st.nICSum[e.To]--
	st.nCC[a][b]--
	st.nSC[a]--
	st.nDC[b]--
}

// checkInvariants recomputes every counter from the assignments and
// verifies it matches, returning a descriptive error on the first
// mismatch. Used by tests and the property-based invariant suite.
func (st *state) checkInvariants() error {
	fresh := newEmptyLike(st)
	for j := range st.data.Posts {
		fresh.c[j] = st.c[j]
		fresh.z[j] = st.z[j]
		fresh.addPost(j)
	}
	if st.cfg.UseLinks {
		for l := range st.data.Links {
			fresh.s[l] = st.s[l]
			fresh.sp[l] = st.sp[l]
			fresh.addLink(l)
		}
	}
	compare := func(name string, a, b [][]int) error {
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					return fmt.Errorf("core: counter %s[%d][%d] = %d, recomputed %d", name, i, j, a[i][j], b[i][j])
				}
			}
		}
		return nil
	}
	compareVec := func(name string, a, b []int) error {
		for i := range a {
			if a[i] != b[i] {
				return fmt.Errorf("core: counter %s[%d] = %d, recomputed %d", name, i, a[i], b[i])
			}
		}
		return nil
	}
	for _, check := range []error{
		compare("nIC", st.nIC, fresh.nIC),
		compareVec("nICSum", st.nICSum, fresh.nICSum),
		compare("nCK", st.nCK, fresh.nCK),
		compareVec("nCKSum", st.nCKSum, fresh.nCKSum),
		compare("nCKT", st.nCKT, fresh.nCKT),
		compareVec("nCKTSum", st.nCKTSum, fresh.nCKTSum),
		compare("nKV", st.nKV, fresh.nKV),
		compareVec("nKVSum", st.nKVSum, fresh.nKVSum),
		compare("nCC", st.nCC, fresh.nCC),
		compareVec("nSC", st.nSC, fresh.nSC),
		compareVec("nDC", st.nDC, fresh.nDC),
	} {
		if check != nil {
			return check
		}
	}
	for i := range st.nIC {
		for c := range st.nIC[i] {
			if st.nIC[i][c] < 0 {
				return fmt.Errorf("core: negative counter nIC[%d][%d]", i, c)
			}
		}
	}
	return nil
}

func newEmptyLike(st *state) *state {
	cfg, data := st.cfg, st.data
	fresh := &state{
		cfg:     cfg,
		data:    data,
		lambda0: st.lambda0,
		nNeg:    st.nNeg,
		c:       make([]int, len(data.Posts)),
		z:       make([]int, len(data.Posts)),
		nIC:     intMatrix(data.U, cfg.C),
		nICSum:  make([]int, data.U),
		nCK:     intMatrix(cfg.C, cfg.K),
		nCKSum:  make([]int, cfg.C),
		nCKT:    intMatrix(cfg.C*cfg.K, data.T),
		nCKTSum: make([]int, cfg.C*cfg.K),
		nKV:     intMatrix(cfg.K, data.V),
		nKVSum:  make([]int, cfg.K),
		nCC:     intMatrix(cfg.C, cfg.C),
		nSC:     make([]int, cfg.C),
		nDC:     make([]int, cfg.C),
	}
	if cfg.UseLinks {
		fresh.s = make([]int, len(data.Links))
		fresh.sp = make([]int, len(data.Links))
	}
	return fresh
}

// negCount returns max(1, U(U−1) − |E|).
func negCount(users, links int) float64 {
	n := float64(users)*float64(users-1) - float64(links)
	if n < 1 {
		n = 1
	}
	return n
}
