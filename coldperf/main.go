// Command coldperf is the COLD benchmark. One invocation runs one workload
// and prints, as the last line of standard output, one JSON object with
// the keys correct, attempted, failed and metrics:
//
//	coldperf -root <checkout> -workload train -seed 1 -seconds 20 -trace 0
//
// Every workload runs the whole system the way a deployment uses it: it
// trains a model (parallel and serial samplers), serves it from two shard
// replicas behind the router, and serves it again from one replica that a
// streaming ingester keeps folding new users into. The workloads differ
// in corpus and model scale, which moves the balance between the Gibbs
// kernels, the score kernel and the HTTP/routing layers. README.md maps
// every metric to the layer and workload it should move.
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// records spans at every layer boundary and reports per-layer metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/cold-diffusion/cold/internal/synth"
)

// workload fixes the corpus and model scale of one workload.
type workload struct {
	name   string
	preset func(seed uint64) synth.Config
	// sweeps is the Gibbs sweep count of each training leg.
	sweeps int
}

var workloads = []workload{
	{name: "train", preset: synth.Large, sweeps: 12},
	{name: "serve-routed", preset: synth.Small, sweeps: 150},
}

// The open-loop rates are the same for every workload and every commit, so
// each is measured at the same offered load. Each keeps its connections
// under a quarter busy, so that a stretch in which the host runs at half
// speed does not push the open loop into saturation (see README.md).
const (
	routeRate  = 300 // 32-item batches through the router, per second
	mixedRate  = 125 // cache-missing 32-item batches beside ingest, per second
	ingestRate = 150 // ingested posts, per second
)

const (
	batchItems = 32 // items per /v1/score/batch request

	// The run is measured in rounds (see overRounds). Every round runs
	// spare set-ups, a training round, a routed round and a fresh round.
	// The shares split -seconds between the time-based phases.
	rounds      = 8
	setupBudget = 500 * time.Millisecond // spare set-ups per round, see stages
	closedShare = 0.15                   // routed closed loop (saturation)
	openShare   = 0.3                    // routed open loop (latency)
	freshShare  = 0.55                   // ingest beside cache-missing reads
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's result line, the last line it prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase counts the operations of one measured phase.
type phase struct {
	Name      string   `json:"name"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
}

// bench carries one run's settings and collects its figures.
type bench struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	root    string
	dir     string // scratch directory of this run, removed at exit
	tr      *tracer

	endToEnd map[string]metric
	perLayer map[string]metric
	phases   []*phase
	// extra holds figures reported beside the declared metrics, such as
	// open-loop generator lateness.
	extra map[string]float64
	// perRound holds each round's value of the end-to-end figures, for
	// the report line.
	perRound map[string][]float64
	setupS   []float64 // set-up samples: one corpus load plus one deployment

	mu     sync.Mutex
	checks []string // failed output checks
}

func (b *bench) e2e(name, unit string, v float64)   { b.endToEnd[name] = metric{v, unit} }
func (b *bench) layer(name, unit string, v float64) { b.perLayer[name] = metric{v, unit} }

func (b *bench) phase(name string) *phase {
	p := &phase{Name: name}
	b.phases = append(b.phases, p)
	return p
}

// fail records a failed output check; the run then reports correct=false
// and exits non-zero.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.checks = append(b.checks, fmt.Sprintf(format, args...))
}

// note records one operation's outcome in p.
func (p *phase) note(err error) {
	p.Attempted++
	if err != nil {
		p.Failed++
		if len(p.Errors) < 5 {
			p.Errors = append(p.Errors, err.Error())
		}
	}
}

func main() {
	root := flag.String("root", ".", "root of the checkout to build and run from")
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds of the time-based phases")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	if err := run(*root, *name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "coldperf:", err)
		os.Exit(1)
	}
}

func run(root, name string, seed uint64, seconds float64, trace bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	dir := filepath.Join(root, ".bench_build", "tmp", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b := &bench{
		w: *w, seed: seed, seconds: seconds, trace: trace, root: root, dir: dir,
		endToEnd: map[string]metric{}, perLayer: map[string]metric{}, extra: map[string]float64{},
		perRound: map[string][]float64{},
	}
	if trace {
		b.tr = newTracer()
	}
	start := time.Now()
	if err := b.stages(); err != nil {
		return err
	}
	b.e2e("peak_rss_mb", "MB", peakRSSMB())
	if trace {
		b.tr.report(b)
		path := filepath.Join(root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := b.tr.write(path); err != nil {
			return err
		}
		b.extra["trace_spans_written"] = float64(b.tr.count())
	}
	b.extra["run_wall_s"] = time.Since(start).Seconds()
	return b.print(os.Stdout)
}

// stages runs the pipeline. A first training leg produces the model the
// kept deployment serves; then every round repeats set-ups (built and
// torn down again), a training round, a routed round and a fresh round, so
// that every figure samples the host across the whole run (see overRounds).
func (b *bench) stages() error {
	in, err := makeInputs(b.w, b.seed, b.window(freshShare), b.dir)
	if err != nil {
		return fmt.Errorf("inputs: %w", err)
	}
	t := b.newTrainer(in)
	if err := t.load(); err != nil {
		return fmt.Errorf("load corpus: %w", err)
	}
	t.loadS = nil // the first load also warms the page cache; not timed
	if err := t.first(); err != nil {
		return fmt.Errorf("train: %w", err)
	}
	in.bindServing(t.data)
	d, err := b.setup(t)
	if err != nil {
		return fmt.Errorf("serving set-up: %w", err)
	}
	defer d.close()
	rt := b.newRouted(in, d)
	fr := b.newFresh(in, d)
	for r := 0; r < rounds; r++ {
		// Set-ups repeat until setupBudget has passed in the round, at
		// least two of them, so a cheap set-up is sampled more often.
		for i, start := 0, time.Now(); i < 2 || time.Since(start) < setupBudget; i++ {
			spare, err := b.setup(t)
			if err != nil {
				return fmt.Errorf("serving set-up: %w", err)
			}
			if err := spare.close(); err != nil {
				return fmt.Errorf("serving tear-down: %w", err)
			}
		}
		// Collect the previous stage's garbage before each timed stage, so
		// that no stage pays for another stage's heap.
		runtime.GC()
		if err := t.round(); err != nil {
			return fmt.Errorf("train: %w", err)
		}
		runtime.GC()
		rt.round(r)
		runtime.GC()
		if err := fr.round(); err != nil {
			return fmt.Errorf("fresh stage: %w", err)
		}
	}
	b.perRound["setup_s"] = b.setupS
	b.e2e("setup_s", "s", median(b.setupS))
	if err := t.finish(); err != nil {
		return fmt.Errorf("train: %w", err)
	}
	rt.finish()
	if err := fr.finish(); err != nil {
		return fmt.Errorf("fresh stage: %w", err)
	}
	return nil
}

// overRounds is the mean of a figure's per-round values. It also keeps the
// values for the report line.
//
// On a shared host the CPU speed changes with the load of the machine's
// other tenants, within a run and from one run to the next. Short rounds
// interleaved across the run sample all of it. Of the summaries tried on
// forty recorded runs (the median, the upper or lower quartile, the best
// round and the mean of the rounds), the mean varied least from seed to
// seed.
func (b *bench) overRounds(name string, xs []float64) float64 {
	b.perRound[name] = xs
	return mean(xs)
}

// print writes the report line (environment, per-phase operation counts,
// failed checks, lateness) and then the result line.
func (b *bench) print(out io.Writer) error {
	res := result{Metrics: b.endToEnd}
	if b.trace {
		res.Metrics = b.perLayer
	}
	for _, p := range b.phases {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
	}
	if res.Attempted == 0 {
		b.fail("no operations attempted")
	}
	if err := b.checkDeclared(res.Metrics); err != nil {
		b.fail("%v", err)
	}
	for name, m := range res.Metrics {
		if !finite(m.Value) {
			b.fail("metric %s is %v", name, m.Value)
			res.Metrics[name] = metric{0, m.Unit}
		}
	}
	for name, v := range b.extra {
		if !finite(v) {
			b.extra[name] = 0
		}
	}
	res.Correct = len(b.checks) == 0
	report := map[string]any{
		"env":           b.env(),
		"phases":        b.phases,
		"failed_checks": b.checks,
		"extra":         b.extra,
		"per_round":     b.perRound,
	}
	if b.trace {
		report["end_to_end"] = b.endToEnd
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"report": report}); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("output checks failed: %s", strings.Join(b.checks, "; "))
	}
	return nil
}

// checkDeclared compares the reported metrics with the ones BENCHMARK.json
// declares for this kind of run (end_to_end untraced, per_layer traced).
func (b *bench) checkDeclared(got map[string]metric) error {
	raw, err := os.ReadFile(filepath.Join(b.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	type decl struct{ Name, Unit string }
	var doc struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := doc.EndToEnd
	if b.trace {
		want = doc.PerLayer
	}
	var bad []string
	for _, d := range want {
		if m, ok := got[d.Name]; !ok || m.Unit != d.Unit {
			bad = append(bad, d.Name+" missing or not in "+d.Unit)
		}
	}
	if len(got) != len(want) {
		bad = append(bad, fmt.Sprintf("%d metrics reported, %d declared", len(got), len(want)))
	}
	if len(bad) > 0 {
		return fmt.Errorf("metrics differ from BENCHMARK.json: %s", strings.Join(bad, "; "))
	}
	return nil
}

func (b *bench) env() map[string]any {
	nproc := runtime.NumCPU()
	return map[string]any{
		"workload":      b.w.name,
		"seed":          b.seed,
		"seconds":       b.seconds,
		"trace":         b.trace,
		"nproc":         nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_sha":       gitSHA(b.root),
		"source_sha256": sourceHash(b.root),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// gitSHA reads HEAD from the checkout's .git directory, or returns
// "unknown" when the checkout is not a git repository.
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	sha, err := os.ReadFile(filepath.Join(root, ".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}

// sourceHash identifies the measured code when no git metadata exists:
// a SHA-256 over the path and content of every .go and go.mod file of the
// checkout, in walk order.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(body))
		h.Write(body)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
