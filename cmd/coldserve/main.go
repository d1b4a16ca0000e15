// Command coldserve is the long-running COLD prediction server: JSON
// endpoints for retweet/diffusion, link, timestamp and topic queries,
// wrapped in the resilience stack of internal/serve — hot model reload
// with validation and rollback, bounded admission with load shedding,
// per-request deadlines and panic containment, SIGTERM-triggered drain,
// and a degraded popularity-prior mode when no model is loadable.
//
// Usage:
//
//	coldserve -model model.json -data dataset.json -addr :8080
//
// The -model flag may name a file or a publish directory; in a
// directory the newest .json/.gob model is served, and the watcher
// picks up newly dropped models, rejecting invalid ones while the
// last-good model keeps serving.
//
// Endpoints (versioned under /v1; the legacy unversioned health routes
// answer with 308 redirects):
//
//	GET  /v1/healthz           process liveness
//	GET  /v1/readyz            starting | ready | degraded | draining
//	GET  /v1/model             serving model info
//	POST /v1/model/reload      force a reload of the current candidate
//	POST /v1/model/rollback    return to the previous generation
//	GET  /v1/stats             request/shed/panic counters
//	GET  /metrics              Prometheus text exposition (alias /v1/metrics)
//	POST /v1/score/batch       {"items":[{"kind","..."},...]} mixed-kind batch
//	POST /v1/predict/retweet   {"publisher","candidate","post"|"words"}
//	POST /v1/predict/link      {"from","to"}
//	POST /v1/predict/time      {"user","post"|"words"}
//	POST /v1/topics            {"user","post"|"words","topn"}
//	GET  /v1/rank/{user}       precomputed top-k retweet candidates
//
// Each single-score route is a one-item view of /v1/score/batch: its
// body is a batch item without "kind" (the path names it), validated
// and scored the same way, and its 200 body is that item's value field
// plus the generation, model_key and (except topics) degraded flag.
//
// The prediction hot path is batch-first: single-score requests are
// coalesced by a micro-batcher (-batch-window/-batch-max) and answered
// through a generation-keyed score cache (-score-cache); cached entries
// die wholesale on every reload or rollback. Candidate rankings are
// precomputed per reload to -rank-k depth.
//
// Every non-2xx response body is the shared JSON error envelope
// {"error":{"code","message","retry_after_ms?"}}.
//
// With -debug-addr a second, operator-only listener exposes
// net/http/pprof under /debug/pprof/, expvar under /debug/vars and the
// same /metrics; keep it off the public network.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/cold-diffusion/cold/internal/cluster"
	"github.com/cold-diffusion/cold/internal/core"
	"github.com/cold-diffusion/cold/internal/corpus"
	"github.com/cold-diffusion/cold/internal/obs"
	"github.com/cold-diffusion/cold/internal/serve"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("coldserve: ")

	addr := flag.String("addr", ":8080", "listen address")
	modelPath := flag.String("model", "model.json", "model file, or directory whose newest .json/.gob model is served")
	dataPath := flag.String("data", "", "dataset for post-index queries and the degraded-mode fallback (optional)")
	topComm := flag.Int("topcomm", 5, "TopComm size for the predictor")
	poll := flag.Duration("poll", 2*time.Second, "model watch interval")
	maxInFlight := flag.Int("max-inflight", 64, "concurrency ceiling the adaptive limiter grows toward; excess is queued or shed")
	limitFloor := flag.Int("limit-floor", 0, "adaptive limiter floor; 0 derives from the ceiling, negative pins the static limit (seed behaviour)")
	queueCap := flag.Int("queue-cap", 0, "deadline-aware admission queue capacity; 0 derives from the ceiling, negative disables queueing")
	brownoutHold := flag.Duration("brownout-hold", 0, "minimum dwell at a brownout level before stepping back down; 0 uses the default")
	brownoutRankK := flag.Int("brownout-rank-k", 0, "rank depth served at brownout L2+; 0 uses a quarter of -rank-k")
	timeout := flag.Duration("timeout", 2*time.Second, "per-request deadline")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on shed requests (jittered ±50% per response)")
	batchWindow := flag.Duration("batch-window", time.Millisecond, "micro-batch coalescing window for single-score requests; negative disables")
	batchMax := flag.Int("batch-max", 64, "micro-batch flushes early at this many coalesced requests")
	cacheEntries := flag.Int("score-cache", 32768, "generation-keyed score cache capacity in entries; negative disables")
	rankK := flag.Int("rank-k", 50, "per-community candidate-ranking depth precomputed at each model load")
	loadRetries := flag.Int("load-retries", 6, "startup model-load attempts before degrading or exiting")
	shardIndex := flag.Int("shard-index", 0, "this replica's shard index when serving behind coldrouter")
	shardCount := flag.Int("shard-count", 0, "total shard count; 0 serves all users (unsharded)")
	debugAddr := flag.String("debug-addr", "", "optional operator listener for pprof + expvar + /metrics (keep private)")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, *logFormat, obs.ParseLevel(*logLevel))
	logf := obs.Printf(logger.With("component", "serve"))

	reg := obs.NewRegistry()
	metrics := serve.NewMetrics(reg)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	var data *corpus.Dataset
	if *dataPath != "" {
		var err error
		if data, err = corpus.LoadFile(*dataPath); err != nil {
			log.Fatalf("load dataset: %v", err)
		}
	}

	backoff := serve.DefaultBackoff
	backoff.Attempts = *loadRetries
	mgr := serve.NewManager(serve.ManagerConfig{
		Path:    *modelPath,
		TopComm: *topComm,
		RankK:   *rankK,
		Poll:    *poll,
		Backoff: backoff,
		Logf:    logf,
		Metrics: metrics,
	})
	if err := mgr.LoadInitial(ctx); err != nil {
		if data == nil {
			log.Fatalf("no model loadable and no -data for fallback: %v", err)
		}
		fb, fberr := core.NewFallbackPredictor(data)
		if fberr != nil {
			log.Fatalf("no model loadable (%v) and fallback construction failed: %v", err, fberr)
		}
		mgr.SetFallback(serve.NewFallbackEngine(fb))
		logger.Warn("no model loadable; serving degraded popularity prior until one appears",
			"error", err, "model_path", *modelPath)
	}
	go mgr.Watch(ctx)

	cfg := serve.Config{
		MaxInFlight:    *maxInFlight,
		LimitFloor:     *limitFloor,
		QueueCap:       *queueCap,
		BrownoutHold:   *brownoutHold,
		BrownoutRankK:  *brownoutRankK,
		RequestTimeout: *timeout,
		DrainTimeout:   *drainTimeout,
		RetryAfter:     *retryAfter,
		BatchWindow:    *batchWindow,
		BatchMax:       *batchMax,
		CacheEntries:   *cacheEntries,
		Logf:           logf,
		Metrics:        metrics,
	}
	if *shardCount > 0 {
		if *shardIndex < 0 || *shardIndex >= *shardCount {
			log.Fatalf("-shard-index %d out of range [0,%d)", *shardIndex, *shardCount)
		}
		idx, n := *shardIndex, *shardCount
		cfg.ShardIndex, cfg.ShardCount = idx, n
		cfg.ShardOwner = func(user int) bool { return cluster.ShardOf(user, n) == idx }
		logger.Info("sharded serving enabled", "shard", idx, "shards", n)
	}
	srv := serve.New(cfg, mgr, data)

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("debug listener: %v", err)
		}
		logger.Info("debug listener up (pprof, expvar, metrics)", "addr", dln.Addr().String())
		go func() {
			if err := http.Serve(dln, obs.DebugMux(reg)); err != nil {
				logger.Warn("debug listener stopped", "error", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	logger.Info("listening", "addr", ln.Addr().String(), "model", *modelPath)
	if err := srv.Serve(ctx, ln); err != nil {
		log.Fatal(err)
	}
	logger.Info("shut down cleanly")
}
