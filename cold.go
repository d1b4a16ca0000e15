// Package cold is the public API of the COLD (COmmunity Level Diffusion)
// library, a from-scratch implementation of "Community Level Diffusion
// Extraction" (Hu, Yao, Cui, Xing — SIGMOD 2015).
//
// COLD is a generative latent-variable model jointly over the text, time
// stamps and interaction network of a social stream. Training extracts:
//
//   - overlapping communities with per-user membership vectors π,
//   - topics with word distributions φ,
//   - each community's interest mixture over topics θ,
//   - community-specific temporal topic dynamics ψ, and
//   - inter-community influence strengths η,
//
// from which the topic-sensitive community-level diffusion strengths
// ζ_kcc' = θ_ck·θ_c'k·η_cc' are derived (Eq. 4 of the paper). On top of
// the extraction the package offers the paper's diffusion prediction
// method (will user i' retweet post d from user i?), link prediction,
// time-stamp prediction, diffusion-pattern analyses, and influential
// community identification via the Independent Cascade model.
//
// # Quickstart
//
//	data, _, err := cold.Synthesize(cold.SmallSynth(1))
//	if err != nil { ... }
//	model, err := cold.Train(ctx, data, cold.DefaultConfig(6, 8))
//	if err != nil { ... }
//	pred := cold.NewPredictor(model, 5)
//	p := pred.Score(alice, bob, post.Words) // diffusion probability
//
// Train takes functional options for everything beyond the basic fit —
// convergence stats, periodic checkpointing, metrics and structured
// logging:
//
//	var st cold.TrainStats
//	reg := cold.NewRegistry()
//	model, err := cold.Train(ctx, data, cfg,
//		cold.WithStats(&st),
//		cold.WithCheckpoints("ckpt/", 10),
//		cold.WithObserver(cold.NewTrainObserver(reg)),
//		cold.WithLogger(slog.Default()))
//
// Training is deterministic for a fixed Config.Seed. Set Config.Workers
// > 1 to use the parallel gather–apply–scatter sampler (an in-process
// equivalent of the paper's GraphLab implementation).
package cold

import (
	"context"

	"github.com/cold-diffusion/cold/internal/core"
	"github.com/cold-diffusion/cold/internal/corpus"
	"github.com/cold-diffusion/cold/internal/synth"
)

// Config configures the COLD model: dimensions (C communities, K
// topics), Dirichlet/Beta hyper-parameters (zero values take the paper's
// defaults), the Gibbs schedule, and the worker count.
type Config = core.Config

// Model holds trained posterior estimates (Pi, Theta, Phi, Psi, Eta) and
// implements prediction and analysis methods.
type Model = core.Model

// TrainStats reports the per-sweep likelihood trace and timing.
type TrainStats = core.TrainStats

// Predictor evaluates the two-step diffusion prediction method (Eqs.
// 5–7) with offline-cached per-user top communities.
type Predictor = core.Predictor

// Dataset is a social stream: users, time-stamped bag-of-words posts,
// interaction links, and retweet records.
type Dataset = corpus.Dataset

// Post is one time-stamped bag-of-words post.
type Post = corpus.Post

// Retweet is one diffusion record: publisher, post and the followers who
// did / did not spread it.
type Retweet = corpus.Retweet

// SynthConfig controls the synthetic social-stream generator used by the
// examples and benchmarks (the stand-in for the paper's Weibo crawls).
type SynthConfig = synth.Config

// GroundTruth carries the generator's planted parameters for recovery
// scoring.
type GroundTruth = synth.GroundTruth

// DefaultConfig returns a Config with the paper's hyper-parameter policy
// for the given community and topic counts.
func DefaultConfig(c, k int) Config { return core.DefaultConfig(c, k) }

// Train fits COLD and returns the averaged posterior estimates. It
// stops at the next sweep boundary when ctx is cancelled, returning the
// model averaged from the samples collected so far alongside ctx.Err()
// (the model is nil only if cancellation struck before the first
// post-burn-in sample). Behaviour beyond the basic fit is selected with
// TrainOption values: WithStats, WithCheckpoints, WithObserver,
// WithLogger, WithRunOptions.
func Train(ctx context.Context, data *Dataset, cfg Config, options ...TrainOption) (*Model, error) {
	var s trainSettings
	for _, o := range options {
		o(&s)
	}
	m, st, err := core.TrainRun(ctx, data, cfg, s.run)
	if s.stats != nil && st != nil {
		*s.stats = *st
	}
	return m, err
}

// RunOptions configures the resilient training runtime: periodic
// checkpointing to disk and divergence-recovery policy. The zero value
// trains without checkpoints.
type RunOptions = core.RunOptions

// Checkpoint is the on-disk training snapshot written by Train with
// WithCheckpoints; LoadCheckpoint inspects one without resuming.
type Checkpoint = core.Checkpoint

// ResumeTraining continues a run from a checkpoint file written by
// Train. Resuming against the same dataset reproduces the
// uninterrupted run bit for bit.
func ResumeTraining(ctx context.Context, path string, data *Dataset, opts RunOptions) (*Model, *TrainStats, error) {
	return core.ResumeTraining(ctx, path, data, opts)
}

// ResumeTrainingLatest continues a run from the newest valid checkpoint
// generation in dir. Generations that fail checksum validation (torn
// write, bit flip, truncation) are quarantined aside with a .bad suffix
// and the walk falls back to the previous generation, so one corrupt
// file costs at most a checkpoint interval of redone work. Resuming
// from any valid generation keeps the bit-identical-replay guarantee.
func ResumeTrainingLatest(ctx context.Context, dir string, data *Dataset, opts RunOptions) (*Model, *TrainStats, error) {
	return core.ResumeTrainingLatest(ctx, dir, data, opts)
}

// LoadCheckpoint reads and validates a checkpoint file without resuming.
func LoadCheckpoint(path string) (*Checkpoint, error) { return core.LoadCheckpoint(path) }

// NewPredictor builds the offline caches for diffusion prediction.
// topComm is the TopComm size; the paper uses 5.
func NewPredictor(m *Model, topComm int) *Predictor { return core.NewPredictor(m, topComm) }

// Synthesize generates a synthetic dataset with planted communities,
// topics, temporal bursts and retweet cascades.
func Synthesize(cfg SynthConfig) (*Dataset, *GroundTruth, error) { return synth.Generate(cfg) }

// EventSynthConfig configures the breaking-news scenario generator.
type EventSynthConfig = synth.EventConfig

// SynthesizeEvent generates a stream whose final topic is a breaking
// event sweeping across communities in adoption order; it returns the
// dataset, ground truth and the event topic index.
func SynthesizeEvent(cfg EventSynthConfig) (*Dataset, *GroundTruth, int, error) {
	return synth.GenerateEvent(cfg)
}

// EventSynth is the breaking-news scenario preset.
func EventSynth(seed uint64) EventSynthConfig { return synth.EventStream(seed) }

// SmallSynth, MediumSynth and LargeSynth are generator presets.
func SmallSynth(seed uint64) SynthConfig { return synth.Small(seed) }

// MediumSynth is the mid-size generator preset.
func MediumSynth(seed uint64) SynthConfig { return synth.Medium(seed) }

// LargeSynth is the scaling-experiment generator preset.
func LargeSynth(seed uint64) SynthConfig { return synth.Large(seed) }

// FoldInPost is one post by a previously unseen user, for fold-in
// membership inference against a trained model.
type FoldInPost = core.FoldInPost

// Diagnostics summarises a training run's likelihood trace.
type Diagnostics = core.Diagnostics

// Diagnose analyses a likelihood trace from TrainStats.
func Diagnose(likelihood []float64) Diagnostics { return core.Diagnose(likelihood) }

// Builder assembles a Dataset from raw social records (string user
// names, free-text posts with unix time stamps, links and retweet
// outcomes), applying the paper's preprocessing: tokenisation with
// stop-word removal, low-activity user filtering, vocabulary pruning and
// time discretisation.
type Builder = corpus.Builder

// NewBuilder returns a dataset builder with the default preprocessing
// policy.
func NewBuilder() *Builder { return corpus.NewBuilder() }

// LoadDataset reads a JSON dataset from a file.
func LoadDataset(path string) (*Dataset, error) { return corpus.LoadFile(path) }

// LoadModel reads a JSON model from a file.
func LoadModel(path string) (*Model, error) { return core.LoadModelFile(path) }
