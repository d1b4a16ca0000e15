package core

import (
	"math"

	"github.com/cold-diffusion/cold/internal/rng"
)

// The post-sampling kernel is the training hot path: every sweep
// evaluates the Eq. (1)×Eq. (3) joint weight for C·K cells per post. The
// fast kernel factors that weight into
//
//	w(c,k) = u(c) · a(c,k) · τ(c,k,t) · W(k)
//
//	u(c)     = (n_i^{(c)} + ρ) / (n_c^{(·)} + Kα)       user × mixture denominator
//	a(c,k)   = n_c^{(k)} + α                            topic-mixture numerator
//	τ(c,k,t) = (n_{ck}^{(t)} + ε) / (n_{ck}^{(·)} + Tε) temporal term
//	W(k)     = ∏_v ∏_q (n_k^{(v)}+β+q) / ∏_q (n_k^{(·)}+Vβ+q)
//
// and evaluates everything in the linear domain: W(k) is computed once
// per topic (not once per cell), the denominators come from the
// incrementally-maintained caches in kernelcache.go, and the per-cell
// work is a handful of multiplies — no math.Log, no math.Exp. The
// ascending-factorial ratio W(k) underflows for long posts (each token
// contributes a factor of roughly 1/V), so posts longer than
// fastTokenCap and any post whose best topic factor drops below
// wordUnderflowFloor fall back to the log-domain reference kernel,
// which is kept verbatim as the correctness baseline (the exactness
// tests pin both paths to the enumerated posterior and to each other).
const (
	// fastTokenCap bounds the post length for the linear-domain word
	// term: below it the separate numerator/denominator products cannot
	// overflow (counts are ≤ ~1e6 per factor and 40 factors stay within
	// float64 range) and rarely underflow.
	fastTokenCap = 40
	// wordUnderflowFloor is the smallest best-topic word factor the fast
	// path accepts. Below it, low-probability cells would flush to
	// subnormals or zero and distort the sampling distribution, so the
	// kernel recomputes the post in the log domain.
	wordUnderflowFloor = 1e-250
)

// sweep performs one full systematic-scan Gibbs sweep over all posts and
// positive links. Post indicators are drawn from the joint conditional
// over (c, z) — the product of the Eq. (1) and Eq. (3) factors — which
// is an exact Gibbs block for the same posterior and mixes far better
// than alternating the two coordinates when community and topic are
// strongly coupled. Links use Eq. (2).
func (st *state) sweep(r *rng.RNG) {
	d := st.ensureDerived()
	for j := range st.data.Posts {
		st.samplePostJoint(j, r, d)
	}
	if st.cfg.UseLinks {
		for l := range st.data.Links {
			st.sampleLink(l, r, d.scr.wc)
		}
	}
}

// sweepAlternating is the paper's literal schedule: Eq. (1) then Eq. (3)
// per post, one coordinate at a time. It targets the same posterior as
// the blocked sweep (the exactness test checks both) but mixes slower.
// Its post kernel is the one the sharded sampler runs, so the
// exactness test pins that kernel to the enumerated posterior.
func (st *state) sweepAlternating(r *rng.RNG) {
	d := st.ensureDerived()
	for j := range st.data.Posts {
		c, z := st.samplePostAlternating(j, r, d.scr.wc, d.scr.wk)
		st.removePost(j)
		st.c[j], st.z[j] = c, z
		st.addPost(j)
	}
	if st.cfg.UseLinks {
		for l := range st.data.Links {
			st.sampleLink(l, r, d.scr.wc)
		}
	}
}

// samplePostJoint resamples (c_ij, z_ij) jointly from the product of the
// Eq. (1) and Eq. (3) conditionals.
func (st *state) samplePostJoint(j int, r *rng.RNG, d *derived) {
	st.removePost(j)
	total, ok := st.postJointWeightsFast(j, d)
	if !ok {
		total = st.postJointWeightsLog(j, d)
	}
	pick := r.CategoricalTotal(d.scr.wck, total)
	st.c[j], st.z[j] = pick/st.cfg.K, pick%st.cfg.K
	st.addPost(j)
}

// wordFactorsFast fills d.scr.wordW with the linear-domain word factors
// W(k) for post p (which must currently be removed from the counters)
// and reports whether the result is usable: false when the post is too
// long for the linear domain or the factors underflowed.
func (st *state) wordFactorsFast(p *postRef, d *derived) bool {
	nTokens := p.nTokens
	if nTokens > fastTokenCap {
		return false
	}
	beta := st.cfg.Beta
	wordW := d.scr.wordW
	maxW := 0.0
	for k := range wordW {
		num := 1.0
		row := st.nKV[k]
		for i, v := range p.ids {
			nv := float64(row[v]) + beta
			for q := 0; q < p.counts[i]; q++ {
				num *= nv + float64(q)
			}
		}
		den := 1.0
		base := d.denomKV[k]
		for q := 0; q < nTokens; q++ {
			den *= base + float64(q)
		}
		w := num / den
		wordW[k] = w
		if w > maxW {
			maxW = w
		}
	}
	return maxW >= wordUnderflowFloor
}

// wordTermsLog fills d.scr.wordW with the log-domain word terms log W(k)
// — the reference computation. The numerator factors index the pooled
// log(n+β) table (word-topic counts are small); the denominator's
// ascending factorial collapses to a Lgamma difference.
func (st *state) wordTermsLog(p *postRef, d *derived) {
	beta := st.cfg.Beta
	nTokens := p.nTokens
	wordW := d.scr.wordW
	for k := range wordW {
		lw := 0.0
		row := st.nKV[k]
		for i, v := range p.ids {
			n := row[v]
			for q := 0; q < p.counts[i]; q++ {
				lw += tableLog(d.logBeta, n+q, beta)
			}
		}
		base := d.denomKV[k]
		lgHi, _ := math.Lgamma(base + float64(nTokens))
		lgLo, _ := math.Lgamma(base)
		wordW[k] = lw - (lgHi - lgLo)
	}
}

// postRef is the per-post view the kernels share: the bag-of-words
// slices hoisted out of the BagOfWords iterator so the hot loops index
// them directly, allocation-free.
type postRef struct {
	user, time int
	ids        []int
	counts     []int
	nTokens    int
}

func (st *state) postRefAt(j int) postRef {
	p := &st.data.Posts[j]
	return postRef{
		user:    p.User,
		time:    p.Time,
		ids:     p.Words.IDs,
		counts:  p.Words.Counts,
		nTokens: p.Words.Len(),
	}
}

// postJointWeightsFast fills d.scr.wck with the factored linear-domain
// joint weights for post j (currently removed from the counters) and
// returns their sum. ok is false when the post needs the log-domain
// path: the weights are then invalid and must be recomputed.
func (st *state) postJointWeightsFast(j int, d *derived) (total float64, ok bool) {
	p := st.postRefAt(j)
	C, K := st.cfg.C, st.cfg.K
	alpha, eps, rho := st.cfg.Alpha, st.cfg.Epsilon, st.cfg.Rho
	if !st.wordFactorsFast(&p, d) {
		return 0, false
	}
	t := p.time
	wordW := d.scr.wordW
	wck := d.scr.wck
	user := st.nIC[p.user]
	for c := 0; c < C; c++ {
		u := (float64(user[c]) + rho) * d.invCK[c]
		row := st.nCK[c]
		ckBase := c * K
		for k := 0; k < K; k++ {
			ck := ckBase + k
			w := u * (float64(row[k]) + alpha) * wordW[k] *
				(float64(st.nCKT[ck][t]) + eps) * d.invCKT[ck]
			wck[ck] = w
			total += w
		}
	}
	if !(total > 0) || math.IsInf(total, 1) {
		return 0, false
	}
	return total, true
}

// postJointWeightsLog is the log-domain reference kernel: exact in
// structure to the original implementation, used directly by long posts
// and as the underflow fallback, and pinned against the fast path by the
// exactness tests. It fills d.scr.wck with exp-normalised weights and
// returns their sum.
func (st *state) postJointWeightsLog(j int, d *derived) (total float64) {
	p := st.postRefAt(j)
	C, K := st.cfg.C, st.cfg.K
	alpha, eps, rho := st.cfg.Alpha, st.cfg.Epsilon, st.cfg.Rho
	st.wordTermsLog(&p, d)
	t := p.time
	wordW := d.scr.wordW
	wck := d.scr.wck
	user := st.nIC[p.user]
	maxLog := math.Inf(-1)
	for c := 0; c < C; c++ {
		userTerm := math.Log(float64(user[c])+rho) - math.Log(d.denomCK[c])
		for k := 0; k < K; k++ {
			ck := c*K + k
			lw := userTerm + wordW[k]
			lw += math.Log(float64(st.nCK[c][k]) + alpha)
			lw += tableLog(d.logEps, st.nCKT[ck][t], eps) - math.Log(d.denomCKT[ck])
			wck[ck] = lw
			if lw > maxLog {
				maxLog = lw
			}
		}
	}
	for i := range wck {
		w := math.Exp(wck[i] - maxLog)
		wck[i] = w
		total += w
	}
	return total
}

// samplePostAlternating is the paper's literal post step: c_ij from
// Eq. (1) given the post's current topic, then z_ij from Eq. (3) given
// the fresh community. It reads the counters with post j still
// registered at (st.c[j], st.z[j]) and excludes the post's own
// contribution arithmetically, so it needs no remove/add and runs
// against a read-only snapshot: the sharded sampler calls it between
// merge boundaries, the serial alternating sweep before its remove/add.
// It returns the new (c, z) and leaves the state untouched. Like the
// joint kernel it evaluates the word term in the linear domain and
// falls back to the log-domain reference on underflow. wc and wk are
// C- and K-sized scratch.
func (st *state) samplePostAlternating(j int, r *rng.RNG, wc, wk []float64) (newC, newZ int) {
	d := st.dv
	C, K := st.cfg.C, st.cfg.K
	alpha, eps, rho, beta := st.cfg.Alpha, st.cfg.Epsilon, st.cfg.Rho, st.cfg.Beta
	post := &st.data.Posts[j]
	user := st.nIC[post.User]
	t := post.Time
	oldC, oldZ := st.c[j], st.z[j]

	// Eq. (1): resample the community given the current topic.
	k := oldZ
	total := 0.0
	for c := 0; c < C; c++ {
		ck := c*K + k
		nIC := float64(user[c])
		nCK := float64(st.nCK[c][k])
		nCKT := float64(st.nCKT[ck][t])
		ic := d.invCK[c]
		it := d.invCKT[ck]
		if c == oldC { // the post occupies this cell in the snapshot
			nIC--
			nCK--
			nCKT--
			ic = 1 / (d.denomCK[c] - 1)
			it = 1 / (d.denomCKT[ck] - 1)
		}
		w := (nIC + rho) * (nCK + alpha) * ic * (nCKT + eps) * it
		wc[c] = w
		total += w
	}
	newC = r.CategoricalTotal(wc, total)

	// Eq. (3): resample the topic given the fresh community.
	nTokens := post.Words.Len()
	ids, counts := post.Words.IDs, post.Words.Counts
	ckBase := newC * K
	fast := nTokens <= fastTokenCap
	if fast {
		maxW := 0.0
		total = 0
		for k := 0; k < K; k++ {
			ck := ckBase + k
			nCK := float64(st.nCK[newC][k])
			nCKT := float64(st.nCKT[ck][t])
			it := d.invCKT[ck]
			if newC == oldC && k == oldZ {
				nCK--
				nCKT--
				it = 1 / (d.denomCKT[ck] - 1)
			}
			ownWords := k == oldZ
			base := d.denomKV[k]
			if ownWords {
				base -= float64(nTokens)
			}
			row := st.nKV[k]
			num := 1.0
			for i, v := range ids {
				nv := float64(row[v]) + beta
				if ownWords {
					nv -= float64(counts[i])
				}
				for q := 0; q < counts[i]; q++ {
					num *= nv + float64(q)
				}
			}
			den := 1.0
			for q := 0; q < nTokens; q++ {
				den *= base + float64(q)
			}
			w := num / den
			if w > maxW {
				maxW = w
			}
			// nCKTSum for a cell equals nCK (one stamp per post).
			w *= (nCK + alpha) * (nCKT + eps) * it
			wk[k] = w
			total += w
		}
		if maxW < wordUnderflowFloor || !(total > 0) || math.IsInf(total, 1) {
			fast = false
		}
	}
	if !fast {
		maxLog := math.Inf(-1)
		for k := 0; k < K; k++ {
			ck := ckBase + k
			nCK := float64(st.nCK[newC][k])
			nCKT := float64(st.nCKT[ck][t])
			den := d.denomCKT[ck]
			if newC == oldC && k == oldZ {
				nCK--
				nCKT--
				den--
			}
			lw := math.Log(nCK+alpha) + math.Log(nCKT+eps) - math.Log(den)
			ownWords := k == oldZ
			base := d.denomKV[k]
			if ownWords {
				base -= float64(nTokens)
			}
			row := st.nKV[k]
			for i, v := range ids {
				nv := float64(row[v]) + beta
				if ownWords {
					nv -= float64(counts[i])
				}
				for q := 0; q < counts[i]; q++ {
					lw += math.Log(nv + float64(q))
				}
			}
			for q := 0; q < nTokens; q++ {
				lw -= math.Log(base + float64(q))
			}
			wk[k] = lw
			if lw > maxLog {
				maxLog = lw
			}
		}
		total = 0
		for k := 0; k < K; k++ {
			w := math.Exp(wk[k] - maxLog)
			wk[k] = w
			total += w
		}
	}
	newZ = r.CategoricalTotal(wk, total)
	return newC, newZ
}

// sampleLink resamples the two community indicators of positive link l
// with the link kernel and registers the result.
func (st *state) sampleLink(l int, r *rng.RNG, weights []float64) {
	a, b := st.drawLink(l, r, weights)
	st.removeLink(l)
	st.s[l], st.sp[l] = a, b
	st.addLink(l)
}

// drawLink is the link kernel of both samplers. Eq. (2) defines the
// joint conditional over the endpoint pair; we draw each endpoint from
// its exact conditional given the other (a standard decomposition of
// the joint Gibbs step that keeps the cost O(C) per endpoint instead of
// O(C²) per link): the source s given s', then s' given the fresh s. It
// returns the new pair and leaves the state untouched. weights is
// C-sized scratch.
func (st *state) drawLink(l int, r *rng.RNG, weights []float64) (s, sp int) {
	s = r.CategoricalTotal(weights, st.linkWeights(l, true, st.sp[l], weights))
	sp = r.CategoricalTotal(weights, st.linkWeights(l, false, s, weights))
	return s, sp
}

// linkWeights fills weights with the Eq. (2) conditional of one endpoint
// of link l over the C communities and returns their sum: the source
// endpoint given destination community other when source is set, else
// the destination endpoint given source community other. The counters
// still hold link l at (st.s[l], st.sp[l]); its own contribution to
// nIC, nCC, nSC and nDC is excluded in integer arithmetic, so the
// weights equal a remove-evaluate-add bit for bit and the sharded
// sampler can evaluate them against its read-only snapshot.
func (st *state) linkWeights(l int, source bool, other int, weights []float64) float64 {
	e := st.data.Links[l]
	oldA, oldB := st.s[l], st.sp[l]
	rho, l1 := st.cfg.Rho, st.cfg.Lambda1
	total := 0.0
	if source { // pairs (c, b)
		row, b := st.nIC[e.From], other
		dst := st.nDC[b]
		pairOwn := 0
		if b == oldB {
			dst, pairOwn = dst-1, 1
		}
		for c := range weights {
			nIC, n, src := row[c], st.nCC[c][b], st.nSC[c]
			if c == oldA {
				nIC, n, src = nIC-1, n-pairOwn, src-1
			}
			fn := float64(n)
			w := (float64(nIC) + rho) * (fn + l1) / (fn + st.negMassCounts(src, dst) + l1)
			weights[c] = w
			total += w
		}
		return total
	}
	row, a := st.nIC[e.To], other // pairs (a, c)
	src := st.nSC[a]
	pairOwn := 0
	if a == oldA {
		src, pairOwn = src-1, 1
	}
	for c := range weights {
		nIC, n, dst := row[c], st.nCC[a][c], st.nDC[c]
		if c == oldB {
			nIC, n, dst = nIC-1, n-pairOwn, dst-1
		}
		fn := float64(n)
		w := (float64(nIC) + rho) * (fn + l1) / (fn + st.negMassCounts(src, dst) + l1)
		weights[c] = w
		total += w
	}
	return total
}

// logLikelihood returns the (unnormalised) training data log-likelihood
// under the current assignments: words given topics, time stamps given
// (community, topic), and positive links given community pairs. It is the
// convergence monitor of §4.3; only differences between sweeps matter.
//
// The per-topic and per-(c,k) log denominators are hoisted out of the
// post loop into the sweep scratch (they are constant during the scan),
// and the small-count word/time logs come from the pooled tables, so the
// monitor costs one pass over the tokens rather than a Log per factor.
func (st *state) logLikelihood() float64 {
	d := st.ensureDerived()
	beta, eps := st.cfg.Beta, st.cfg.Epsilon
	ll := 0.0
	K := st.cfg.K
	logWordBase := d.scr.wordW // log(nKVSum[k]+Vβ), hoisted per call
	for k := range logWordBase {
		logWordBase[k] = math.Log(d.denomKV[k])
	}
	logCKTDen := d.scr.wck // log(nCKTSum[ck]+Tε), hoisted per call
	for ck := range logCKTDen {
		logCKTDen[ck] = math.Log(d.denomCKT[ck])
	}
	for j := range st.data.Posts {
		p := &st.data.Posts[j]
		k := st.z[j]
		ck := st.c[j]*K + k
		wordBase := logWordBase[k]
		row := st.nKV[k]
		ids, counts := p.Words.IDs, p.Words.Counts
		for i, v := range ids {
			ll += float64(counts[i]) * (tableLog(d.logBeta, row[v], beta) - wordBase)
		}
		ll += tableLog(d.logEps, st.nCKT[ck][p.Time], eps) - logCKTDen[ck]
	}
	if st.cfg.UseLinks {
		l1 := st.cfg.Lambda1
		for l := range st.data.Links {
			a, b := st.s[l], st.sp[l]
			n := float64(st.nCC[a][b])
			ll += math.Log((n + l1) / (n + st.negMass(a, b) + l1))
		}
	}
	return ll
}
