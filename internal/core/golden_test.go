package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"github.com/cold-diffusion/cold/internal/corpus"
	"github.com/cold-diffusion/cold/internal/synth"
)

// Golden chain digests: an FNV-1a hash of the latent assignments
// (c, z, s, sp) after three sweeps at seed 7 on synth.Small(21). The
// serial digest guards the chain behind the EXPERIMENTS.md shapes; the
// sharded digest guards the parallel sampler's schedule and kernels. A
// change to either is a change to the sampled chain and must be
// deliberate: update the constant and say why.
const (
	goldenSerialDigest  uint64 = 0x4e149dcea4dc8bf1
	goldenShardedDigest uint64 = 0x8337b3969141f552
	goldenSweeps               = 3
)

func goldenData(t *testing.T) (*corpus.Dataset, Config) {
	t.Helper()
	sc := synth.Small(21)
	data, _, err := synth.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(sc.C, sc.K).withDefaults()
	cfg.Seed = 7
	return data, cfg
}

func chainDigest(c, z, s, sp []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range [][]int{c, z, s, sp} {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(v)))
		h.Write(buf[:])
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func TestSerialChainGoldenDigest(t *testing.T) {
	data, cfg := goldenData(t)
	smp, err := newSerialSampler(data, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < goldenSweeps; i++ {
		if err := smp.sweep(); err != nil {
			t.Fatal(err)
		}
	}
	if got := chainDigest(smp.assignments()); got != goldenSerialDigest {
		t.Fatalf("serial chain digest %#x, want %#x", got, goldenSerialDigest)
	}
}

func TestShardedChainGoldenDigest(t *testing.T) {
	data, cfg := goldenData(t)
	for _, w := range []int{1, 4} {
		cfg.Workers = w
		smp, err := newParallelSampler(data, cfg, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < goldenSweeps; i++ {
			if err := smp.sweep(); err != nil {
				t.Fatal(err)
			}
		}
		if got := chainDigest(smp.assignments()); got != goldenShardedDigest {
			t.Fatalf("workers=%d: sharded chain digest %#x, want %#x", w, got, goldenShardedDigest)
		}
	}
}
