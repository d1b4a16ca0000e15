package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"time"

	"github.com/cold-diffusion/cold/internal/corpus"
	"github.com/cold-diffusion/cold/internal/ingest"
	"github.com/cold-diffusion/cold/internal/rng"
	"github.com/cold-diffusion/cold/internal/serve"
	"github.com/cold-diffusion/cold/internal/synth"
	"github.com/cold-diffusion/cold/internal/text"
)

const (
	routeDistinct = 2000 // distinct retweet tuples of the routed stream
	routeZipfS    = 1.4  // skew of the routed stream over those tuples
	routeBatches  = 512  // precomputed routed batches, cycled
	streamUsers   = 200  // new users the ingest stream posts as
	heldOutFolds  = 10   // 1/heldOutFolds of the posts are held out
)

// item is one retweet tuple of a score batch.
type item struct {
	Publisher int `json:"publisher"`
	Candidate int `json:"candidate"`
	Post      int `json:"post"`
}

// batchBody encodes items as a POST /v1/score/batch body.
func batchBody(items []item) ([]byte, error) {
	type wireItem struct {
		Kind serve.Kind `json:"kind"`
		item
	}
	wire := make([]wireItem, len(items))
	for i, it := range items {
		wire[i] = wireItem{serve.KindRetweet, it}
	}
	return json.Marshal(map[string][]wireItem{"items": wire})
}

// itemsOf decodes the items of a batch body.
func itemsOf(body []byte) ([]item, error) {
	var b struct {
		Items []item `json:"items"`
	}
	err := json.Unmarshal(body, &b)
	return b.Items, err
}

// inputs is everything a run sends to the system, generated from the seed.
// Request bodies are kept as bytes only: the benchmark's own heap then adds
// little to the garbage collector's work in the serving process it shares.
type inputs struct {
	dataPath string // the training split, written as JSON for corpus.LoadFile
	tokens   int    // tokens in the training split

	heldUsers []int
	heldWords []text.BagOfWords
	// unigramPPL is the held-out perplexity of the add-one smoothed
	// unigram model of the training posts, the baseline a topic model
	// must beat.
	unigramPPL float64

	warm    [][]byte            // every routed tuple once, to fill the cache
	routed  [][]byte            // Zipf draws from routeDistinct tuples
	records []ingest.PostRecord // the ingest stream
	bodies  [][]byte            // records as POST /v1/ingest bodies

	// tuple draws a uniform retweet tuple from r; mixed batches are drawn
	// on demand so that none repeats and none is held in memory.
	tuple func(r *rand.Rand) item
	seed  uint64

	// words resolves an item's post to its bag of words, for the
	// in-process reference scores; set once the dataset is loaded.
	words func(post int) text.BagOfWords
}

func makeInputs(w workload, seed uint64, freshWindow time.Duration, dir string) (*inputs, error) {
	full, _, err := synth.Generate(w.preset(seed))
	if err != nil {
		return nil, err
	}
	splits, err := full.CrossValidation(rng.New(seed^0x5eed), heldOutFolds)
	if err != nil {
		return nil, err
	}
	train := full.TrainView(splits[0])
	in := &inputs{dataPath: filepath.Join(dir, "data.json"), tokens: train.WordCount(), seed: seed}
	if err := train.SaveFile(in.dataPath); err != nil {
		return nil, err
	}
	for _, i := range splits[0].TestPosts {
		in.heldUsers = append(in.heldUsers, full.Posts[i].User)
		in.heldWords = append(in.heldWords, full.Posts[i].Words)
	}
	in.unigramPPL = unigramPerplexity(train, in.heldWords)

	posts, users := make([]int, len(train.Posts)), train.U
	for i, p := range train.Posts {
		posts[i] = p.User
	}
	in.tuple = func(r *rand.Rand) item {
		p := r.Intn(len(posts))
		cand := r.Intn(users - 1)
		if cand >= posts[p] {
			cand++
		}
		return item{Publisher: posts[p], Candidate: cand, Post: p}
	}
	r := rand.New(rand.NewSource(int64(seed)))
	pool := make([]item, routeDistinct)
	for i := range pool {
		pool[i] = in.tuple(r)
	}
	for i := 0; i < len(pool); i += batchItems {
		body, err := batchBody(pool[i:min(i+batchItems, len(pool))])
		if err != nil {
			return nil, err
		}
		in.warm = append(in.warm, body)
	}
	zipf := rand.NewZipf(r, routeZipfS, 1, routeDistinct-1)
	items := make([]item, batchItems)
	for i := 0; i < routeBatches; i++ {
		for j := range items {
			items[j] = pool[zipf.Uint64()]
		}
		body, err := batchBody(items)
		if err != nil {
			return nil, err
		}
		in.routed = append(in.routed, body)
	}
	// One record per post the fresh rounds send, so the stream users
	// never run out of posts.
	for i := 0; i <= int(ingestRate*freshWindow.Seconds()); i++ {
		h := r.Intn(len(in.heldWords))
		rec := ingest.PostRecord{
			User:  fmt.Sprintf("stream-%d-%d", seed, r.Intn(streamUsers)),
			Slice: full.Posts[splits[0].TestPosts[h]].Time,
			Words: in.heldWords[h],
		}
		body, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		in.records = append(in.records, rec)
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

func unigramPerplexity(train *corpus.Dataset, held []text.BagOfWords) float64 {
	counts := make([]float64, train.V)
	total := 0.0
	for _, p := range train.Posts {
		for j, w := range p.Words.IDs {
			counts[w] += float64(p.Words.Counts[j])
			total += float64(p.Words.Counts[j])
		}
	}
	ll, n := 0.0, 0
	for _, bag := range held {
		for j, w := range bag.IDs {
			ll += float64(bag.Counts[j]) * math.Log((counts[w]+1)/(total+float64(train.V)))
			n += bag.Counts[j]
		}
	}
	return math.Exp(-ll / float64(n))
}

// mixedItems returns the i-th cache-missing batch of the fresh rounds: a
// deterministic function of the seed and i.
func (in *inputs) mixedItems(i int) []item {
	r := rand.New(rand.NewSource(int64(in.seed)<<32 ^ int64(i)))
	items := make([]item, batchItems)
	for j := range items {
		items[j] = in.tuple(r)
	}
	return items
}

// bindServing points the reference scorer at the dataset the replicas
// serve post content from.
func (in *inputs) bindServing(data *corpus.Dataset) {
	in.words = func(post int) text.BagOfWords { return data.Posts[post].Words }
}

// requests converts items to the engine's request type.
func (in *inputs) requests(items []item) []serve.ScoreRequest {
	out := make([]serve.ScoreRequest, len(items))
	for i, it := range items {
		out[i] = serve.ScoreRequest{Kind: serve.KindRetweet, Publisher: it.Publisher,
			Candidate: it.Candidate, Words: in.words(it.Post)}
	}
	return out
}
