// Command coldrouter is the fault-tolerant routing tier in front of a
// sharded coldserve fleet. Users are assigned to shards by a stable
// hash of their index; each shard is a pool of replicas that the router
// health-probes, retries across, hedges between, and circuit-breaks
// around, so one slow or dead replica degrades tail latency instead of
// availability.
//
// Usage:
//
//	coldrouter -shards "http://127.0.0.1:8081,http://127.0.0.1:8082|http://127.0.0.1:8083" \
//	    -addr :8080 -data dataset.json
//
// The -shards flag is '|'-separated shards, each a comma-separated
// replica pool; shard i in this list must be the coldserve processes
// started with -shard-index i. With -data set, the router answers from
// the degraded popularity prior (marked "degraded": true) when a whole
// shard is unreachable, instead of failing the request.
//
// Endpoints (the forwarded /v1 prediction surface plus the router's
// own):
//
//	POST /v1/score/batch        items split by shard, merged back in order
//	POST /v1/predict/retweet    forwarded to the candidate's shard
//	POST /v1/predict/link       forwarded to the source user's shard
//	POST /v1/predict/time       forwarded to the user's shard
//	POST /v1/topics             forwarded to the user's shard
//	GET  /v1/rank/{user}        forwarded to the user's shard
//	GET  /v1/cluster/status     shard map, breaker states, replica health
//	GET  /v1/healthz            router process liveness
//	GET  /metrics               Prometheus text exposition (alias /v1/metrics)
//
// A batch item routes by the same routing user as its single route.
// Every non-2xx response body is the shared JSON error envelope.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/cold-diffusion/cold/internal/cluster"
	"github.com/cold-diffusion/cold/internal/core"
	"github.com/cold-diffusion/cold/internal/corpus"
	"github.com/cold-diffusion/cold/internal/obs"
	"github.com/cold-diffusion/cold/internal/serve"
	"github.com/cold-diffusion/cold/internal/text"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("coldrouter: ")

	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.String("shards", "", "backend topology: '|'-separated shards, each a comma-separated replica URL pool (required)")
	dataPath := flag.String("data", "", "dataset for the degraded-mode fallback when a whole shard is down (optional)")
	timeout := flag.Duration("timeout", 2*time.Second, "end-to-end routed request deadline, retries and hedges included")
	attemptTimeout := flag.Duration("attempt-timeout", 0, "single forwarded attempt deadline (0: half the request deadline)")
	maxAttempts := flag.Int("max-attempts", 3, "forward attempts per request, first try included")
	budgetBurst := flag.Int("retry-budget", 10, "retry budget burst: banked extra-attempt tokens")
	budgetRatio := flag.Float64("retry-ratio", 0.1, "retry budget earn rate: tokens earned per routed request")
	hedgeAfter := flag.Duration("hedge-after", 0, "launch a tail-latency hedge to a second replica after this delay (0: off)")
	probeEvery := flag.Duration("probe-every", time.Second, "active health-probe interval (jittered)")
	ejectAfter := flag.Int("eject-after", 3, "consecutive failures that eject a replica")
	readmitAfter := flag.Int("readmit-after", 2, "consecutive probe successes that readmit an ejected replica")
	slowStart := flag.Duration("slow-start", 3*time.Second, "readmitted-replica traffic ramp window")
	breakerFailures := flag.Int("breaker-failures", 5, "consecutive whole-request failures that open a shard's breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 2*time.Second, "open-breaker shed window (jittered)")
	seed := flag.Int64("seed", 0, "jitter RNG seed for reproducible runs (0: default)")
	debugAddr := flag.String("debug-addr", "", "optional operator listener for pprof + expvar + /metrics (keep private)")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()

	if *shards == "" {
		log.Fatal("-shards is required, e.g. -shards \"http://h1:8081,http://h2:8081|http://h3:8081\"")
	}
	topology := parseShards(*shards)

	logger := obs.NewLogger(os.Stderr, *logFormat, obs.ParseLevel(*logLevel))
	logf := obs.Printf(logger.With("component", "cluster"))

	reg := obs.NewRegistry()
	metrics := cluster.NewMetrics(reg)

	cfg := cluster.Config{
		Shards:          topology,
		RequestTimeout:  *timeout,
		AttemptTimeout:  *attemptTimeout,
		MaxAttempts:     *maxAttempts,
		BudgetBurst:     *budgetBurst,
		BudgetRatio:     *budgetRatio,
		HedgeAfter:      *hedgeAfter,
		ProbeEvery:      *probeEvery,
		EjectAfter:      *ejectAfter,
		ReadmitAfter:    *readmitAfter,
		SlowStart:       *slowStart,
		BreakerFailures: *breakerFailures,
		BreakerCooldown: *breakerCooldown,
		Seed:            *seed,
		Logf:            logf,
		Metrics:         metrics,
	}

	if *dataPath != "" {
		data, err := corpus.LoadFile(*dataPath)
		if err != nil {
			log.Fatalf("load dataset: %v", err)
		}
		fb, err := core.NewFallbackPredictor(data)
		if err != nil {
			log.Fatalf("fallback construction: %v", err)
		}
		cfg.Fallback = serve.NewFallbackEngine(fb)
		cfg.Posts = func(post int) (text.BagOfWords, bool) {
			if post < 0 || post >= len(data.Posts) {
				return text.BagOfWords{}, false
			}
			return data.Posts[post].Words, true
		}
		logger.Info("degraded fallback armed", "data", *dataPath)
	}

	rt, err := cluster.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	rt.StartProbes(ctx)

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
	logger.Info("routing", "addr", ln.Addr().String(), "shards", len(topology))
	if err := rt.Serve(ctx, ln); err != nil {
		log.Fatal(err)
	}
	logger.Info("shut down cleanly")
}

// parseShards splits "a,b|c,d" into [[a b] [c d]], trimming whitespace
// and dropping empty entries so trailing separators are forgiven.
func parseShards(spec string) [][]string {
	var out [][]string
	for _, shard := range strings.Split(spec, "|") {
		var pool []string
		for _, u := range strings.Split(shard, ",") {
			if u = strings.TrimSpace(u); u != "" {
				pool = append(pool, u)
			}
		}
		if len(pool) > 0 {
			out = append(out, pool)
		}
	}
	return out
}
