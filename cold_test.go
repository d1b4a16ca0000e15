package cold_test

import (
	"context"
	"testing"

	cold "github.com/cold-diffusion/cold"
)

// TestPublicAPIRoundTrip exercises the full public surface the way a
// downstream user would: synthesize → train → predict → analyse.
func TestPublicAPIRoundTrip(t *testing.T) {
	cfg := cold.SynthConfig{U: 60, C: 3, K: 4, T: 8, V: 120,
		PostsPerUser: 8, WordsPerPost: 6, LinksPerUser: 5, Seed: 3}
	data, gt, err := cold.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gt == nil || len(gt.Primary) != data.U {
		t.Fatal("ground truth missing")
	}

	mcfg := cold.DefaultConfig(3, 4)
	mcfg.Iterations, mcfg.BurnIn, mcfg.Seed = 15, 8, 7
	var stats cold.TrainStats
	model, err := cold.Train(context.Background(), data, mcfg, cold.WithStats(&stats))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sweeps != 15 {
		t.Fatalf("sweeps %d", stats.Sweeps)
	}

	pred := cold.NewPredictor(model, 5)
	if len(data.Retweets) > 0 {
		rt := data.Retweets[0]
		words := data.Posts[rt.Post].Words
		s := pred.Score(rt.Publisher, rt.Retweeters[0], words)
		if s < 0 || s > 1 {
			t.Fatalf("score %v out of range", s)
		}
	}

	// Analysis methods are reachable from the facade's Model.
	if z := model.Zeta(0, 0, 1); z < 0 || z > 1 {
		t.Fatalf("zeta %v", z)
	}
	if top := model.TopCommunities(0, 2); len(top) != 2 {
		t.Fatalf("top communities %v", top)
	}
	if lag := model.PopularityLag(0, 1, 1e-4); len(lag.HighCurve) != data.T {
		t.Fatal("lag curve wrong length")
	}

	// Persistence via the facade.
	dir := t.TempDir()
	if err := data.SaveFile(dir + "/d.json"); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.LoadDataset(dir + "/d.json"); err != nil {
		t.Fatal(err)
	}
	if err := model.SaveFile(dir + "/m.json"); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.LoadModel(dir + "/m.json"); err != nil {
		t.Fatal(err)
	}
}

func TestPresets(t *testing.T) {
	for _, cfg := range []cold.SynthConfig{cold.SmallSynth(1), cold.MediumSynth(1), cold.LargeSynth(1)} {
		if cfg.U == 0 || cfg.C == 0 || cfg.K == 0 {
			t.Fatalf("empty preset %+v", cfg)
		}
	}
	small, medium, large := cold.SmallSynth(1), cold.MediumSynth(1), cold.LargeSynth(1)
	if !(small.U < medium.U && medium.U < large.U) {
		t.Fatal("presets not increasing")
	}
}

func TestEventSynthFacade(t *testing.T) {
	cfg := cold.EventSynth(3)
	cfg.Base.U, cfg.Base.PostsPerUser = 60, 6
	data, gt, event, err := cold.SynthesizeEvent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if event != cfg.Base.K-1 {
		t.Fatalf("event topic %d", event)
	}
	if data.U != 60 || len(gt.PostZ) != len(data.Posts) {
		t.Fatal("event facade wiring broken")
	}
}
