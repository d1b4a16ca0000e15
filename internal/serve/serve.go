// Package serve is the online prediction layer: an HTTP server that
// answers retweet/diffusion, link, timestamp and topic queries from a
// trained COLD model, wrapped in the resilience stack a long-running
// deployment needs.
//
// The stack has five layers:
//
//   - Hot model reload (Manager): a watcher polls a model file or
//     publish directory, validates every candidate with the load-time
//     validation before an atomic pointer swap, keeps serving the
//     last-good snapshot when a candidate is corrupt, and supports
//     explicit rollback to the previous snapshot.
//
//   - Admission control (Server.guard): a bounded in-flight pool sheds
//     excess load with 429 + jittered Retry-After instead of queueing
//     without bound, every request runs under a deadline, and a
//     per-request recover converts handler panics into 500s without
//     taking down the process.
//
//   - The prediction hot path: the Engine contract is batch-first
//     (ScoreBatch with per-item error slots, POST /v1/score/batch on
//     the wire), each single-score route is a one-item view of a batch
//     item (wire.go) that coalesces through a micro-batching window,
//     repeat scores are answered from a generation-keyed cache whose
//     entries die wholesale on model swap, and per-community top-k
//     candidate rankings are precomputed once per reload for
//     GET /v1/rank/{user}.
//
//   - Graceful lifecycle: /healthz (process liveness) and /readyz
//     (model state: starting → ready/degraded → draining), and a
//     context-triggered drain that stops accepting work, finishes
//     in-flight requests, and exits within a deadline. Model loading
//     at startup retries with jittered exponential backoff.
//
//   - Graceful degradation: when no full model is loadable the server
//     answers from core.FallbackPredictor, a popularity prior over the
//     raw dataset, and reports "degraded" from /readyz and in every
//     response — callers keep getting ranked answers, clearly marked.
package serve

import (
	"context"
	"errors"
	"fmt"

	"github.com/cold-diffusion/cold/internal/colderr"
	"github.com/cold-diffusion/cold/internal/core"
	"github.com/cold-diffusion/cold/internal/text"
)

// ErrDegraded reports a query that the degraded-mode fallback engine
// cannot answer at all (as opposed to answering it worse). It wraps the
// public colderr.ErrDegraded sentinel, so callers outside the internal
// tree can match the condition with errors.Is against the re-export at
// the cold root.
var ErrDegraded = fmt.Errorf("serve: %w", colderr.ErrDegraded)

// ErrBadItem reports a batch item whose indices, words or kind do not
// fit the serving model. It fills the item's ScoreResult.Err slot; the
// rest of the batch is unaffected.
var ErrBadItem = errors.New("serve: invalid score request")

// ModelInfo describes the engine behind a snapshot, for /v1/model and
// request-level validation.
type ModelInfo struct {
	Users       int  `json:"users"`
	Communities int  `json:"communities,omitempty"`
	Topics      int  `json:"topics,omitempty"`
	TimeSlices  int  `json:"time_slices,omitempty"`
	Vocab       int  `json:"vocab,omitempty"`
	Degraded    bool `json:"degraded"`
}

// Kind selects the scoring operation of one batch item.
type Kind string

const (
	// KindRetweet scores the probability that Candidate spreads a post
	// published by Publisher (Eq. 7 for the full model). Uses Words.
	KindRetweet Kind = "retweet"
	// KindLink scores the probability of a directed link From → To.
	KindLink Kind = "link"
	// KindTime predicts the most likely time slice for User's post.
	// Uses Words.
	KindTime Kind = "time"
	// KindTopics computes the topic posterior P(k | d, i) for User's
	// post. Uses Words. The fallback engine cannot answer it.
	KindTopics Kind = "topics"
)

// ScoreRequest is one item of an Engine.ScoreBatch call. Kind selects
// which of the remaining fields are read; unrelated fields are ignored.
type ScoreRequest struct {
	Kind Kind

	// Publisher and Candidate are the retweet pair.
	Publisher int
	Candidate int
	// From and To are the link pair.
	From int
	To   int
	// User is the posting user for time and topics items.
	User int
	// Words is the post content for retweet, time and topics items.
	Words text.BagOfWords
}

// ScoreResult is the per-item result slot of a ScoreBatch call. The
// field selected by the request's Kind is meaningful; Err is the
// per-item error slot (nil on success). A failed item never aborts the
// batch — callers inspect each slot.
type ScoreResult struct {
	Score  float64   // retweet, link
	Slice  int       // time
	Topics []float64 // topics: the full posterior over K topics
	Err    error
}

// Engine is the prediction surface the HTTP handlers need. The contract
// is batch-first: ScoreBatch evaluates a mixed batch of items against
// one model snapshot and returns one result slot per item, in order.
// Both the full trained model and the degraded-mode fallback implement
// it; all implementations must be safe for concurrent use and must not
// retain the request slice.
type Engine interface {
	Info() ModelInfo
	// ScoreBatch answers len(reqs) items. Implementations check ctx
	// between items and fail the remainder with ctx.Err() when it is
	// done; per-item validation failures fill that item's Err slot with
	// ErrBadItem (wrapped) without affecting siblings.
	ScoreBatch(ctx context.Context, reqs []ScoreRequest) []ScoreResult
	// Rank returns up to n precomputed top candidates most likely to
	// spread from / link to user. Engines without a ranking table
	// (the fallback) return ErrDegraded.
	Rank(user, n int) ([]core.RankedCandidate, error)
}

// checkCtx fails reqs[i:] with ctx.Err() if ctx is done. It is called
// every few items so a deadline-hit batch stops burning CPU.
func checkCtx(ctx context.Context, out []ScoreResult, i int) bool {
	if ctx == nil || i&63 != 0 {
		return false
	}
	err := ctx.Err()
	if err == nil {
		return false
	}
	for j := i; j < len(out); j++ {
		out[j].Err = err
	}
	return true
}

func badUser(name string, v, n int) error {
	return fmt.Errorf("%w: %s %d out of range [0,%d)", ErrBadItem, name, v, n)
}

// check fails a request whose kind is unknown or whose users fall
// outside [0, users). Handlers validate items with ScoreItem.Build
// first; the engines still run check, since ScoreBatch is also called
// directly and must never index out of range.
func (r *ScoreRequest) check(users int) error {
	in := func(name string, v int) error {
		if v < 0 || v >= users {
			return badUser(name, v, users)
		}
		return nil
	}
	switch r.Kind {
	case KindRetweet:
		if err := in("publisher", r.Publisher); err != nil {
			return err
		}
		return in("candidate", r.Candidate)
	case KindLink:
		if err := in("from", r.From); err != nil {
			return err
		}
		return in("to", r.To)
	case KindTime, KindTopics:
		return in("user", r.User)
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrBadItem, r.Kind)
	}
}

// modelEngine adapts a trained model + its offline predictor caches
// (per-user TopComm lists and per-community top-k candidate rankings).
type modelEngine struct {
	m *core.Model
	p *core.Predictor
	r *core.CommunityRanker
}

func newModelEngine(m *core.Model, topComm, rankK int, pm *core.PredictorMetrics) modelEngine {
	p := core.NewPredictor(m, topComm)
	if pm != nil {
		p.SetMetrics(pm)
	}
	return modelEngine{m: m, p: p, r: core.NewCommunityRanker(m, rankK)}
}

func (e modelEngine) Info() ModelInfo {
	return ModelInfo{
		Users:       e.m.U,
		Communities: e.m.Cfg.C,
		Topics:      e.m.Cfg.K,
		TimeSlices:  e.m.T,
		Vocab:       e.m.V,
	}
}

func (e modelEngine) ScoreBatch(ctx context.Context, reqs []ScoreRequest) []ScoreResult {
	out := make([]ScoreResult, len(reqs))
	for i := range reqs {
		if checkCtx(ctx, out, i) {
			return out
		}
		r := &reqs[i]
		if out[i].Err = r.check(e.m.U); out[i].Err != nil {
			continue
		}
		switch r.Kind {
		case KindRetweet:
			out[i].Score = e.p.Score(r.Publisher, r.Candidate, r.Words)
		case KindLink:
			out[i].Score = e.m.LinkScore(r.From, r.To)
		case KindTime:
			out[i].Slice = e.m.PredictTimestamp(r.User, r.Words)
		case KindTopics:
			out[i].Topics = e.p.TopicPosterior(r.User, r.Words)
		}
	}
	return out
}

func (e modelEngine) Rank(user, n int) ([]core.RankedCandidate, error) {
	if user < 0 || user >= e.m.U {
		return nil, badUser("user", user, e.m.U)
	}
	return e.r.TopCandidates(user, e.p.TopComm(user), n), nil
}

// fallbackEngine adapts the popularity prior.
type fallbackEngine struct {
	f *core.FallbackPredictor
}

// NewFallbackEngine wraps a popularity-prior predictor as a degraded
// serving engine.
func NewFallbackEngine(f *core.FallbackPredictor) Engine { return fallbackEngine{f: f} }

func (e fallbackEngine) Info() ModelInfo {
	return ModelInfo{Users: e.f.Users(), Degraded: true}
}

func (e fallbackEngine) ScoreBatch(ctx context.Context, reqs []ScoreRequest) []ScoreResult {
	out := make([]ScoreResult, len(reqs))
	for i := range reqs {
		if checkCtx(ctx, out, i) {
			return out
		}
		r := &reqs[i]
		if r.Kind == KindTopics {
			out[i].Err = ErrDegraded
			continue
		}
		if out[i].Err = r.check(e.f.Users()); out[i].Err != nil {
			continue
		}
		switch r.Kind {
		case KindRetweet:
			out[i].Score = e.f.Score(r.Publisher, r.Candidate, r.Words)
		case KindLink:
			out[i].Score = e.f.LinkScore(r.From, r.To)
		case KindTime:
			out[i].Slice = e.f.PredictTimestamp(r.User, r.Words)
		}
	}
	return out
}

func (e fallbackEngine) Rank(int, int) ([]core.RankedCandidate, error) {
	return nil, ErrDegraded
}
