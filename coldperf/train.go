package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/cold-diffusion/cold/internal/checkpoint"
	"github.com/cold-diffusion/cold/internal/core"
	"github.com/cold-diffusion/cold/internal/corpus"
	"github.com/cold-diffusion/cold/internal/obs"
)

const benchSweeps = 10 // timed sweeps of each per-layer sweep benchmark

// trainer runs the training legs: core.TrainRun on the loaded corpus with
// the parallel GAS sampler at GOMAXPROCS workers and periodic checkpoints,
// and with the serial sampler. Every model must validate with a finite
// final likelihood, and since the chain is a function of the seed alone,
// every parallel round must reach the same model.
type trainer struct {
	b         *bench
	in        *inputs
	cfg       core.Config
	p         *phase
	observer  *core.TrainObserver // traced runs only
	data      *corpus.Dataset
	model     *core.Model
	modelPath string // the parallel-trained model, as a gob file

	loadS, tps, serialTPS []float64
	ppl                   float64
}

func (b *bench) newTrainer(in *inputs) *trainer {
	t := &trainer{b: b, in: in, p: b.phase("train"), modelPath: filepath.Join(b.dir, "model.gob")}
	pc := b.w.preset(b.seed)
	t.cfg = core.DefaultConfig(pc.C, pc.K)
	t.cfg.Iterations, t.cfg.BurnIn, t.cfg.SampleLag = b.w.sweeps, b.w.sweeps/2, 5
	t.cfg.Seed = b.seed
	if b.trace {
		t.observer = core.NewTrainObserver(obs.NewRegistry())
	}
	return t
}

// load times corpus.LoadFile, the first half of the set-up figure.
func (t *trainer) load() error {
	start := time.Now()
	data, err := corpus.LoadFile(t.in.dataPath)
	if err != nil {
		return err
	}
	t.loadS = append(t.loadS, time.Since(start).Seconds())
	t.data = data
	return nil
}

func (t *trainer) leg(workers int, name string, observer *core.TrainObserver) (*core.Model, float64) {
	b := t.b
	c := t.cfg
	c.Workers = workers
	opts := core.RunOptions{
		CheckpointDir:   filepath.Join(b.dir, "ckpt-"+name),
		CheckpointEvery: max(b.w.sweeps/4, 1),
		KeepCheckpoints: 2,
		Observer:        observer,
	}
	start := time.Now()
	m, st, err := core.TrainRun(context.Background(), t.data, c, opts)
	wall := time.Since(start).Seconds()
	if err == nil {
		err = m.Validate()
	}
	if err == nil && (len(st.Likelihood) == 0 || !finite(st.Likelihood[len(st.Likelihood)-1])) {
		err = fmt.Errorf("%s training ended without a finite likelihood", name)
	}
	t.p.note(err)
	if err != nil {
		b.fail("%s model: %v", name, err)
		return nil, 0
	}
	return m, float64(t.in.tokens) * float64(b.w.sweeps) / wall
}

// first runs the untimed parallel leg whose model the deployments serve.
func (t *trainer) first() error {
	m, _ := t.leg(runtime.GOMAXPROCS(0), "parallel", nil)
	if m == nil {
		return fmt.Errorf("parallel training failed")
	}
	t.model, t.ppl = m, m.Perplexity(t.in.heldUsers, t.in.heldWords)
	return m.SaveGobFile(t.modelPath)
}

// round runs one timed parallel and one timed serial training leg.
func (t *trainer) round() error {
	m, tps := t.leg(runtime.GOMAXPROCS(0), "parallel", t.observer)
	_, serial := t.leg(1, "serial", nil)
	if m == nil {
		return fmt.Errorf("parallel training failed")
	}
	t.tps, t.serialTPS = append(t.tps, tps), append(t.serialTPS, serial)
	if ppl := m.Perplexity(t.in.heldUsers, t.in.heldWords); math.Float64bits(ppl) != math.Float64bits(t.ppl) {
		t.b.fail("parallel rounds disagree: held-out perplexity %v then %v", t.ppl, ppl)
	}
	return nil
}

// finish reports the training figures.
func (t *trainer) finish() error {
	b := t.b
	b.e2e("train_tokens_per_s", "tokens/s", b.overRounds("train_tokens_per_s", t.tps))
	b.e2e("train_serial_tokens_per_s", "tokens/s", b.overRounds("train_serial_tokens_per_s", t.serialTPS))
	if !finite(t.ppl) || t.ppl <= 0 {
		b.fail("held-out perplexity %v is not a positive finite number", t.ppl)
	}
	b.e2e("train_heldout_perplexity", "perplexity", t.ppl)
	b.extra["unigram_heldout_perplexity"] = t.in.unigramPPL
	b.extra["heldout_perplexity_ratio"] = t.ppl / t.in.unigramPPL
	if b.trace {
		return b.trainLayers(t.cfg, t.data, t.observer)
	}
	return nil
}

// trainLayers reports the training layers: the serial kernel, the GAS
// engine's phase split at GOMAXPROCS and at one worker, allocation per
// sweep, and checkpoint cost.
func (b *bench) trainLayers(cfg core.Config, data *corpus.Dataset, observer *core.TrainObserver) error {
	ser := cfg
	ser.Workers = 1
	sb, err := core.BenchSweeps(data, ser, 1, benchSweeps)
	if err != nil {
		return err
	}
	b.layer("core.serial_sweep_ms", "ms", 1000*sb.Seconds/float64(sb.Sweeps))

	par := cfg
	par.Workers = runtime.GOMAXPROCS(0)
	pb, _, err := core.BenchParallelSweeps(data, par, 1, benchSweeps)
	if err != nil {
		return err
	}
	perSweep := func(s float64) float64 { return 1000 * s / float64(pb.Sweeps) }
	b.layer("core.allocs_per_sweep", "count", pb.AllocsPerSweep)
	b.layer("gas.sweep_ms", "ms", perSweep(pb.Seconds))
	b.layer("gas.busy_ms_per_sweep", "ms", perSweep(pb.BusySeconds))
	b.layer("gas.barrier_ms_per_sweep", "ms", perSweep(pb.BarrierSeconds))
	b.layer("gas.merge_ms_per_sweep", "ms", perSweep(pb.SerialMergeSeconds))

	one := cfg
	one.Workers = 1
	ob, _, err := core.BenchParallelSweeps(data, one, 1, benchSweeps)
	if err != nil {
		return err
	}
	b.layer("gas.one_worker_sweep_ms", "ms", 1000*ob.Seconds/float64(ob.Sweeps))

	saves := observer.CheckpointSave
	if saves.Count() == 0 {
		return fmt.Errorf("the parallel run wrote no checkpoint")
	}
	b.layer("checkpoint.save_ms", "ms", 1000*saves.Sum()/float64(saves.Count()))
	path, _, err := checkpoint.Latest(filepath.Join(b.dir, "ckpt-parallel"))
	if err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	b.layer("checkpoint.bytes", "bytes", float64(info.Size()))
	return nil
}
