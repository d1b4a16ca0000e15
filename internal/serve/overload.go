package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"github.com/cold-diffusion/cold/internal/envelope"
	"github.com/cold-diffusion/cold/internal/overload"
)

// Brownout ladder semantics: what each level turns off. The levels are
// cumulative — L3 includes everything L1 and L2 already degraded.
//
//	L0  normal service
//	L1  widen the micro-batch window ×brownoutBatchFactor and serve
//	    slightly-stale cache entries (the previous model generation)
//	L2  clamp rank-k to BrownoutRankK and refuse cold cache fills
//	    (protect the hot set instead of churning it)
//	L3  answer rank/background tiers from the popularity-prior fallback
//	    (degraded) — or shed them when no fallback is registered; the
//	    rank route itself sheds (the prior cannot rank)
//	L4  shed all non-interactive traffic
const (
	brownoutWideBatch  = 1 // L1+: widen the batch window
	brownoutStaleCache = 1 // L1+: previous-generation cache hits allowed
	brownoutShrinkRank = 2 // L2+: clamp rank-k
	brownoutNoFill     = 2 // L2+: no new cache fills
	brownoutFallback   = 3 // L3+: low tiers answered from the prior, or shed
	brownoutShedBulk   = 4 // L4: everything non-interactive sheds

	// brownoutBatchFactor multiplies the micro-batch window at L1+:
	// larger batches amortise more per-request overhead exactly when
	// the server can least afford it.
	brownoutBatchFactor = 4
)

// tierKey / ticketKey carry the request's priority tier and admission
// ticket through the request context, from guard to the scoring path.
type (
	tierKey   struct{}
	ticketKey struct{}
)

// requestTier resolves the effective tier: a valid X-Cold-Priority
// header wins, otherwise the route default. An unknown name degrades
// to the default rather than erroring.
func requestTier(r *http.Request, def overload.Tier) overload.Tier {
	if v := r.Header.Get(overload.PriorityHeader); v != "" {
		if t, ok := overload.ParseTier(v); ok {
			return t
		}
	}
	return def
}

// requestDeadline parses X-Cold-Deadline-Ms (milliseconds remaining,
// as stamped by the cluster router) into an absolute deadline. ok is
// false when the header is absent; err means a malformed value.
func requestDeadline(r *http.Request) (deadline time.Time, ok bool, err error) {
	v := r.Header.Get(overload.DeadlineHeader)
	if v == "" {
		return time.Time{}, false, nil
	}
	ms, perr := strconv.ParseInt(v, 10, 64)
	if perr != nil {
		return time.Time{}, false, fmt.Errorf("bad %s header %q", overload.DeadlineHeader, v)
	}
	return time.Now().Add(time.Duration(ms) * time.Millisecond), true, nil
}

// tierOf reads the tier guard stashed in the context; plain interactive
// when the request bypassed guard (tests calling scoreOne directly).
func tierOf(ctx context.Context) overload.Tier {
	if t, ok := ctx.Value(tierKey{}).(overload.Tier); ok {
		return t
	}
	return overload.TierInteractive
}

// Overload exposes the admission controller (stats, test hooks).
func (s *Server) Overload() *overload.Controller { return s.ctrl }

// Brownout exposes the ladder, or nil in static-admission mode.
func (s *Server) Brownout() *overload.Ladder { return s.ladder }

// brownoutLevel is the current ladder level (L0 when the ladder is
// disabled), read without feeding a pressure sample.
func (s *Server) brownoutLevel() int {
	if s.ladder == nil {
		return 0
	}
	return s.ladder.Level()
}

// observeBrownout feeds one pressure sample to the ladder and mirrors
// the level into the gauge. Called on every admission attempt and
// health probe, so the ladder keeps stepping down under trailing
// traffic once an overload passes.
func (s *Server) observeBrownout() int {
	if s.ladder == nil {
		return 0
	}
	lvl := s.ladder.Observe(s.ctrl.Pressure())
	s.cfg.Metrics.brownoutAt(lvl)
	return lvl
}

// brownoutShed applies the ladder's admission policy, answering the
// 503 itself when this tier is browned out at this level. Brownout
// sheds are counted through the controller (one shed funnel) but by
// design do not feed the pressure signal — pressure driven by its own
// consequences would latch the ladder at L4.
func (s *Server) brownoutShed(w http.ResponseWriter, route string, tier overload.Tier, lvl int) bool {
	shed := false
	switch {
	case lvl >= brownoutShedBulk:
		shed = tier > overload.TierInteractive
	case lvl >= brownoutFallback && tier >= overload.TierRank:
		// Low tiers survive L3 only if the popularity prior can answer
		// them; the rank route has no degraded answer (the prior holds
		// no rankings), so it sheds outright.
		shed = route == "rank" || s.mgr.FallbackSnapshot() == nil
	}
	if !shed {
		return false
	}
	s.ctrl.RecordShed(tier, overload.ReasonBrownout)
	envelope.WriteShed(w, http.StatusServiceUnavailable, "brownout",
		fmt.Sprintf("brownout L%d: %s traffic is shed until pressure drops", lvl, tier),
		jitteredRetry(s.cfg.RetryAfter))
	return true
}

// shedError maps an admission refusal onto the /v1 error envelope.
func (s *Server) shedError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, overload.ErrQueueFull):
		// The classic overload answer, kept byte-compatible with the
		// old static pool: 429 + jittered Retry-After.
		envelope.WriteShed(w, http.StatusTooManyRequests, "overloaded",
			"overloaded, retry later", jitteredRetry(s.cfg.RetryAfter))
	case errors.Is(err, overload.ErrDeadlineUnmeetable):
		envelope.WriteError(w, http.StatusServiceUnavailable, "deadline_unmeetable",
			"deadline cannot be met at the current service rate")
	case errors.Is(err, overload.ErrExpiredInQueue):
		envelope.WriteError(w, http.StatusServiceUnavailable, "deadline_exceeded",
			"request deadline expired while queued for admission")
	case errors.Is(err, context.DeadlineExceeded):
		envelope.WriteError(w, http.StatusServiceUnavailable, "deadline_exceeded",
			"request deadline exceeded")
	default: // context.Canceled: the client is gone; answer for the log's sake
		envelope.WriteError(w, http.StatusServiceUnavailable, "canceled", "request canceled")
	}
}

// jitteredRetry spreads a Retry-After base ±50% so a shed burst doesn't
// come back as one synchronized retry herd (same policy as the ingester).
func jitteredRetry(base time.Duration) time.Duration {
	return time.Duration(float64(base) * (0.5 + rand.Float64()))
}

// deadlineWriter is the last line of the never-serve-past-deadline
// guarantee: a success status reaching WriteHeader after the request's
// propagated deadline is rewritten into the deadline_exceeded envelope.
// The scoring path already aborts on the context deadline; this catches
// the residue (a response computed just in time but written just late).
type deadlineWriter struct {
	http.ResponseWriter
	deadline    time.Time
	wroteHeader bool
	suppressed  bool
	onMiss      func()
}

func (dw *deadlineWriter) WriteHeader(status int) {
	if dw.wroteHeader {
		return
	}
	dw.wroteHeader = true
	if status < 400 && time.Now().After(dw.deadline) {
		dw.suppressed = true
		if dw.onMiss != nil {
			dw.onMiss()
		}
		dw.Header().Del("Content-Length")
		dw.Header().Set("Content-Type", "application/json")
		dw.ResponseWriter.WriteHeader(http.StatusServiceUnavailable)
		dw.ResponseWriter.Write([]byte(timeoutBody))
		return
	}
	dw.ResponseWriter.WriteHeader(status)
}

func (dw *deadlineWriter) Write(b []byte) (int, error) {
	if !dw.wroteHeader {
		dw.WriteHeader(http.StatusOK)
	}
	if dw.suppressed {
		return len(b), nil
	}
	return dw.ResponseWriter.Write(b)
}
