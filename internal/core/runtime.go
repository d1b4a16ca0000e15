package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math"
	"os"
	"time"

	"github.com/cold-diffusion/cold/internal/checkpoint"
	"github.com/cold-diffusion/cold/internal/corpus"
	"github.com/cold-diffusion/cold/internal/faultinject"
	"github.com/cold-diffusion/cold/internal/gas"
	"github.com/cold-diffusion/cold/internal/rng"
	"github.com/cold-diffusion/cold/internal/supervise"
)

// RunOptions configures the resilient training runtime around the Gibbs
// sampler: checkpoint cadence and retention, and the divergence-recovery
// policy. The zero value disables on-disk checkpoints but keeps in-memory
// rollback snapshots and all health guards.
type RunOptions struct {
	// CheckpointDir, when non-empty, receives periodic full sampler-state
	// checkpoints (sweep-NNNNNNNN.ckpt) that ResumeTraining can continue
	// from. The directory is created if missing.
	CheckpointDir string
	// CheckpointEvery is the sweep interval between checkpoints (and
	// in-memory rollback snapshots). Default 10.
	CheckpointEvery int
	// KeepCheckpoints bounds how many checkpoint files are retained in
	// CheckpointDir. Default 3.
	KeepCheckpoints int
	// MaxRollbacks is how many consecutive divergence recoveries (without
	// an intervening healthy checkpoint) are attempted before training
	// gives up with an error. Default 3.
	MaxRollbacks int
	// DivergenceDrop is the fractional single-sweep log-likelihood
	// collapse that trips the divergence guard: a sweep is unhealthy when
	// ll < prev − DivergenceDrop·(|prev|+1). Default 0.5; a negative
	// value disables the collapse check (NaN/Inf and negative-counter
	// guards always stay on).
	DivergenceDrop float64
	// SweepTimeout, when > 0, bounds the scatter of each colour batch
	// of the GAS engine (the boundary merge after it runs on the calling
	// goroutine and is not covered): a batch that overruns is aborted by
	// the stall supervisor and the sweep is retried from the last
	// in-memory snapshot with a freshly built sampler. Serial runs (Workers <= 1) are not covered — supervise
	// them with the process-level watchdog (supervise.Run) via Heartbeat
	// instead.
	SweepTimeout time.Duration
	// StallGrace, when > 0, bounds one GAS worker's heartbeat silence:
	// a worker that scatters no edge for longer than this is declared
	// stalled and the sweep is aborted and retried as for SweepTimeout.
	StallGrace time.Duration
	// MaxCheckpointFailures is how many consecutive checkpoint-write
	// failures are tolerated (logged, counted, training continues on the
	// in-memory state) before the run aborts. Default 3.
	MaxCheckpointFailures int
	// Heartbeat, when non-nil, is beaten once per completed sweep
	// attempt, feeding a process-level supervise.Run watchdog around the
	// whole training call.
	Heartbeat *supervise.Heartbeat
	// Observer, when non-nil, receives the run's metrics (sweep
	// durations, likelihood, rollback/resume counters, checkpoint I/O
	// timings, and GAS worker metrics for parallel runs).
	Observer *TrainObserver
	// Logger, when non-nil, emits one structured record per sweep plus
	// lifecycle events (rollbacks, checkpoints, resume).
	Logger *slog.Logger
}

func (o RunOptions) withDefaults() RunOptions {
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 10
	}
	if o.KeepCheckpoints <= 0 {
		o.KeepCheckpoints = 3
	}
	if o.MaxRollbacks <= 0 {
		o.MaxRollbacks = 3
	}
	if o.DivergenceDrop == 0 {
		o.DivergenceDrop = 0.5
	}
	if o.MaxCheckpointFailures <= 0 {
		o.MaxCheckpointFailures = 3
	}
	return o
}

// stallPolicy translates the run's supervision knobs into the GAS
// engine's policy, or nil when supervision is off.
func (o RunOptions) stallPolicy() *gas.StallPolicy {
	if o.SweepTimeout <= 0 && o.StallGrace <= 0 {
		return nil
	}
	return &gas.StallPolicy{Deadline: o.SweepTimeout, Grace: o.StallGrace}
}

// checkpointVersion guards the Checkpoint gob schema.
const checkpointVersion = 1

// Checkpoint is the complete serialized state of a training run at a
// sweep boundary: latent assignments (count matrices are rebuilt from
// them on load), every RNG stream, the thinned-sample accumulator and the
// convergence trace. It is written inside internal/checkpoint's
// checksummed container.
type Checkpoint struct {
	Version int
	Cfg     Config
	Sweep   int // completed sweeps
	Samples int

	Likelihood []float64
	C, Z       []int // per-post community/topic assignments
	S, SP      []int // per-link endpoint assignments
	RNG        [][4]uint64
	AccSum     *Model // running sum of thinned samples (nil before burn-in)
	AccN       int
	DataHash   uint64
}

// LoadCheckpoint reads and validates a checkpoint written by TrainRun.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	var ck Checkpoint
	if err := checkpoint.ReadFile(path, &ck); err != nil {
		return nil, err
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint %s has version %d, this build reads %d", path, ck.Version, checkpointVersion)
	}
	if len(ck.RNG) == 0 || ck.Sweep < 0 {
		return nil, fmt.Errorf("core: checkpoint %s is structurally invalid", path)
	}
	return &ck, nil
}

// LoadLatestCheckpoint walks the checkpoint generations in dir from
// newest to oldest and loads the first valid one. Generations that fail
// frame validation (torn write, bit flip, truncation) are quarantined
// aside with the .bad suffix and reported in quarantined; generations
// rejected for non-corruption reasons (e.g. a schema-version mismatch)
// are skipped in place. It returns the loaded checkpoint and its path,
// or — when no generation validates — the last validation error
// (wrapping os.ErrNotExist for an empty directory).
func LoadLatestCheckpoint(dir string) (*Checkpoint, string, []string, error) {
	var ck *Checkpoint
	gen, quarantined, err := checkpoint.LatestValid(dir, func(path string) error {
		loaded, lerr := LoadCheckpoint(path)
		if lerr != nil {
			return lerr
		}
		ck = loaded
		return nil
	})
	if err != nil {
		return nil, "", quarantined, err
	}
	return ck, gen.Path, quarantined, nil
}

// sweeper abstracts the serial and parallel samplers behind the training
// runtime: one sweep at a time, with enough state access to snapshot,
// roll back and resume.
type sweeper interface {
	sweep() error           // one full Gibbs sweep; panics surface as errors
	logLikelihood() float64 // after the latest sweep
	estimate() *Model       // point estimates of the current sample
	health() string         // "" or a description of corrupted counters
	rngStates() [][4]uint64 // [0] is the main stream, rest are shard streams
	restoreRNG([][4]uint64) error
	reseed(salt uint64)                     // perturb all streams after a rollback
	assignments() (c, z, s, sp []int)       // live slices; caller must copy
	setAssignments(c, z, s, sp []int) error // copy in and rebuild counters
}

func newSweeper(data *corpus.Dataset, cfg Config, resume *Checkpoint, gm *gas.Metrics, sp *gas.StallPolicy) (sweeper, error) {
	if cfg.Workers > 1 {
		return newParallelSampler(data, cfg, resume, gm, sp)
	}
	return newSerialSampler(data, cfg, resume)
}

// runTraining is the shared resilient loop behind TrainWithStats (and
// so Train), TrainRun, ResumeTraining and ResumeTrainingLatest.
func runTraining(ctx context.Context, data *corpus.Dataset, cfg Config, opts RunOptions, resume *Checkpoint) (*Model, *TrainStats, error) {
	start := time.Now()
	cfg, err := validateTrainInputs(data, cfg)
	if err != nil {
		return nil, nil, err
	}
	opts = opts.withDefaults()

	stats := &TrainStats{}
	var acc accumulator
	sweep0 := 0
	if resume != nil {
		if resume.DataHash != datasetHash(data) {
			return nil, nil, fmt.Errorf("core: checkpoint was taken against a different dataset (hash %#x, dataset %#x)", resume.DataHash, datasetHash(data))
		}
		acc.restore(resume.AccSum, resume.AccN)
		stats.Likelihood = append([]float64(nil), resume.Likelihood...)
		stats.Samples = resume.Samples
		stats.ResumedAt = resume.Sweep
		sweep0 = resume.Sweep
		opts.Observer.resumed()
		if opts.Logger != nil {
			opts.Logger.Info("resumed from checkpoint", "sweep", resume.Sweep, "samples", resume.Samples)
		}
	}
	smp, err := newSweeper(data, cfg, resume, opts.Observer.gasMetrics(), opts.stallPolicy())
	if err != nil {
		return nil, nil, err
	}
	if opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return nil, nil, err
		}
	}

	hash := datasetHash(data)
	takeSnapshot := func(sweep int) *Checkpoint {
		return snapshotCheckpoint(cfg, smp, &acc, stats, sweep, hash)
	}
	persist := func(ck *Checkpoint) error {
		if opts.CheckpointDir == "" {
			return nil
		}
		saveStart := time.Now()
		path := checkpoint.SweepPath(opts.CheckpointDir, ck.Sweep)
		if err := checkpoint.WriteFile(path, ck); err != nil {
			return fmt.Errorf("core: writing checkpoint: %w", err)
		}
		stats.LastCheckpoint = path
		faultinject.Fire(faultinject.CheckpointWritten, path)
		// Retention GC failing must not fail the save that just
		// succeeded: worst case the directory holds extra generations.
		if err := checkpoint.Prune(opts.CheckpointDir, opts.KeepCheckpoints); err != nil && opts.Logger != nil {
			opts.Logger.Warn("checkpoint prune failed", "dir", opts.CheckpointDir, "error", err)
		}
		opts.Observer.checkpointSaved(time.Since(saveStart).Seconds())
		if opts.Logger != nil {
			opts.Logger.Info("checkpoint written", "path", path, "sweep", ck.Sweep)
		}
		return nil
	}
	// A checkpoint write failing is a storage fault, not a training
	// fault: the in-memory state is intact, so the run logs, counts and
	// continues, aborting only after MaxCheckpointFailures consecutive
	// failures (persistent storage loss means an interrupted run would
	// lose unbounded work).
	ckptFailures := 0
	tolerate := func(perr error) error {
		if perr == nil {
			ckptFailures = 0
			return nil
		}
		ckptFailures++
		stats.CheckpointFailures++
		opts.Observer.checkpointFailed()
		if opts.Logger != nil {
			opts.Logger.Warn("checkpoint write failed, continuing on in-memory state",
				"error", perr, "consecutive", ckptFailures, "max", opts.MaxCheckpointFailures)
		}
		if ckptFailures >= opts.MaxCheckpointFailures {
			return fmt.Errorf("core: %d consecutive checkpoint failures, last: %w", ckptFailures, perr)
		}
		return nil
	}

	lastGood := takeSnapshot(sweep0)
	rollbacks := 0 // consecutive, since the last healthy snapshot

	it := sweep0
	canceled := false
	for it < cfg.Iterations {
		if ctx.Err() != nil {
			canceled = true
			break
		}
		faultinject.Fire(faultinject.CoreSweep, it)
		if ctx.Err() != nil { // a hook may have cancelled us
			canceled = true
			break
		}
		sweepStart := time.Now()
		sweepErr := smp.sweep()
		opts.Heartbeat.Beat()
		var ll float64
		problem := ""
		if sweepErr != nil {
			problem = sweepErr.Error()
		} else {
			ll = smp.logLikelihood()
			faultinject.Fire(faultinject.CoreLikelihood, &ll)
			problem = healthProblem(ll, stats.Likelihood, opts, smp)
		}
		sweepSecs := time.Since(sweepStart).Seconds()
		if sweepErr != nil && errors.Is(sweepErr, gas.ErrStalled) {
			// A stalled worker cannot be killed, only abandoned: the
			// poisoned engine (and the program state its leaked goroutine
			// may still mutate) is discarded wholesale and a fresh sampler
			// is rebuilt from the last in-memory snapshot. No reseed — the
			// stall was environmental, not statistical, so the retry
			// replays the identical trajectory and bit-identical resume
			// semantics survive the recovery.
			rollbacks++
			stats.Stalls++
			opts.Observer.stallRecovered(cfg.Workers)
			if opts.Logger != nil {
				opts.Logger.Warn("sweep stalled, rebuilding sampler from snapshot",
					"sweep", it, "error", sweepErr, "rebuild_at", lastGood.Sweep, "consecutive", rollbacks)
			}
			if rollbacks > opts.MaxRollbacks {
				return nil, stats, fmt.Errorf("core: sweep %d stalled after %d recoveries (rebuilt at sweep %d): %w", it, opts.MaxRollbacks, lastGood.Sweep, sweepErr)
			}
			fresh, rerr := newSweeper(data, cfg, lastGood, opts.Observer.gasMetrics(), opts.stallPolicy())
			if rerr != nil {
				return nil, stats, fmt.Errorf("core: rebuilding sampler after stall: %w", rerr)
			}
			smp = fresh
			acc.restore(lastGood.AccSum, lastGood.AccN)
			stats.Likelihood = append(stats.Likelihood[:0], lastGood.Likelihood...)
			stats.Samples = lastGood.Samples
			it = lastGood.Sweep
			continue
		}
		if problem != "" {
			rollbacks++
			stats.Rollbacks++
			opts.Observer.rolledBack()
			if opts.Logger != nil {
				opts.Logger.Warn("sweep unhealthy, rolling back", "sweep", it, "problem", problem, "rollback_to", lastGood.Sweep, "consecutive", rollbacks)
			}
			if rollbacks > opts.MaxRollbacks {
				return nil, stats, fmt.Errorf("core: training unhealthy at sweep %d (%s) after %d rollbacks to sweep %d; giving up", it, problem, opts.MaxRollbacks, lastGood.Sweep)
			}
			if err := restoreCheckpointInto(lastGood, smp, &acc, stats); err != nil {
				return nil, stats, fmt.Errorf("core: rollback failed: %w", err)
			}
			// Reseed so the retry does not replay the identical trajectory
			// into the same failure.
			smp.reseed(0x9e3779b97f4a7c15 * uint64(rollbacks))
			it = lastGood.Sweep
			continue
		}
		stats.Likelihood = append(stats.Likelihood, ll)
		opts.Observer.sweepDone(it, sweepSecs, ll)
		if opts.Logger != nil {
			opts.Logger.Info("sweep", "sweep", it, "log_likelihood", ll, "seconds", sweepSecs, "samples", stats.Samples)
		}
		if it >= cfg.BurnIn && (it-cfg.BurnIn)%cfg.SampleLag == 0 {
			acc.add(smp.estimate())
			stats.Samples++
			opts.Observer.sampleTaken()
		}
		it++
		if it%opts.CheckpointEvery == 0 && it < cfg.Iterations {
			lastGood = takeSnapshot(it)
			rollbacks = 0
			if err := tolerate(persist(lastGood)); err != nil {
				return nil, stats, err
			}
		}
	}

	stats.Sweeps = it
	// Final checkpoint — at completion or cancellation — so the run can
	// be resumed (or its terminal state inspected) either way.
	if opts.CheckpointDir != "" {
		if err := tolerate(persist(takeSnapshot(it))); err != nil {
			return nil, stats, err
		}
	}
	model := acc.mean()
	if model == nil {
		// Degenerate schedules (all burn-in, or cancelled before the
		// first thinned sample) still return the current sample.
		model = smp.estimate()
		stats.Samples = 1
	}
	stats.Elapsed = time.Since(start)
	if canceled {
		return model, stats, ctx.Err()
	}
	return model, stats, nil
}

// healthProblem implements the per-sweep divergence guard: non-finite
// likelihood, single-sweep likelihood collapse, and count-matrix
// negativity. It returns "" for a healthy sweep.
func healthProblem(ll float64, trace []float64, opts RunOptions, smp sweeper) string {
	if math.IsNaN(ll) || math.IsInf(ll, 0) {
		return fmt.Sprintf("non-finite log-likelihood %v", ll)
	}
	if opts.DivergenceDrop > 0 && len(trace) > 0 {
		prev := trace[len(trace)-1]
		if ll < prev-opts.DivergenceDrop*(math.Abs(prev)+1) {
			return fmt.Sprintf("log-likelihood collapsed from %.2f to %.2f", prev, ll)
		}
	}
	if bad := smp.health(); bad != "" {
		return "negative counter " + bad
	}
	return ""
}

// snapshotCheckpoint deep-copies the full sampler state at a sweep
// boundary.
func snapshotCheckpoint(cfg Config, smp sweeper, acc *accumulator, stats *TrainStats, sweep int, hash uint64) *Checkpoint {
	c, z, s, sp := smp.assignments()
	sum, n := acc.snapshot()
	return &Checkpoint{
		Version:    checkpointVersion,
		Cfg:        cfg,
		Sweep:      sweep,
		Samples:    stats.Samples,
		Likelihood: append([]float64(nil), stats.Likelihood...),
		C:          append([]int(nil), c...),
		Z:          append([]int(nil), z...),
		S:          append([]int(nil), s...),
		SP:         append([]int(nil), sp...),
		RNG:        append([][4]uint64(nil), smp.rngStates()...),
		AccSum:     sum,
		AccN:       n,
		DataHash:   hash,
	}
}

// restoreCheckpointInto rolls the live run back to a snapshot.
func restoreCheckpointInto(ck *Checkpoint, smp sweeper, acc *accumulator, stats *TrainStats) error {
	if err := smp.setAssignments(ck.C, ck.Z, ck.S, ck.SP); err != nil {
		return err
	}
	if err := smp.restoreRNG(ck.RNG); err != nil {
		return err
	}
	acc.restore(ck.AccSum, ck.AccN)
	stats.Likelihood = append(stats.Likelihood[:0], ck.Likelihood...)
	stats.Samples = ck.Samples
	return nil
}

// datasetHash fingerprints the dataset's shape and structure so a
// checkpoint resumed against the wrong data fails fast instead of
// silently producing an irreproducible model.
func datasetHash(d *corpus.Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		u := uint64(v)
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(d.U)
	put(d.T)
	put(d.V)
	put(len(d.Posts))
	put(len(d.Links))
	for i := range d.Posts {
		put(d.Posts[i].User)
		put(d.Posts[i].Time)
		put(d.Posts[i].Words.Len())
	}
	for _, e := range d.Links {
		put(e.From)
		put(e.To)
	}
	return h.Sum64()
}

// serialSampler adapts the exact serial collapsed Gibbs sampler to the
// runtime's sweeper interface.
type serialSampler struct {
	st *state
	r  *rng.RNG
}

func newSerialSampler(data *corpus.Dataset, cfg Config, resume *Checkpoint) (*serialSampler, error) {
	if resume == nil {
		r := rng.New(cfg.Seed)
		return &serialSampler{st: newState(data, cfg, r), r: r}, nil
	}
	st, err := stateFromAssignments(data, cfg, resume.C, resume.Z, resume.S, resume.SP)
	if err != nil {
		return nil, err
	}
	s := &serialSampler{st: st, r: rng.New(cfg.Seed)}
	if err := s.restoreRNG(resume.RNG); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *serialSampler) sweep() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: serial sweep panicked: %v", p)
		}
	}()
	s.st.sweep(s.r)
	return nil
}

func (s *serialSampler) logLikelihood() float64 { return s.st.logLikelihood() }
func (s *serialSampler) estimate() *Model       { return s.st.estimate() }
func (s *serialSampler) health() string         { return s.st.negativeCounter() }

func (s *serialSampler) rngStates() [][4]uint64 { return [][4]uint64{s.r.State()} }

func (s *serialSampler) restoreRNG(states [][4]uint64) error {
	if len(states) != 1 {
		return fmt.Errorf("core: serial sampler expects 1 RNG stream, checkpoint has %d", len(states))
	}
	s.r.Restore(states[0])
	return nil
}

func (s *serialSampler) reseed(salt uint64) {
	s.r = rng.New(s.r.Uint64() ^ salt)
}

func (s *serialSampler) assignments() (c, z, sl, sp []int) {
	return s.st.c, s.st.z, s.st.s, s.st.sp
}

func (s *serialSampler) setAssignments(c, z, sl, sp []int) error {
	st, err := stateFromAssignments(s.st.data, s.st.cfg, c, z, sl, sp)
	if err != nil {
		return err
	}
	s.st = st
	return nil
}
