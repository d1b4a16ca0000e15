package serve

import (
	"fmt"

	"github.com/cold-diffusion/cold/internal/envelope"
	"github.com/cold-diffusion/cold/internal/overload"
	"github.com/cold-diffusion/cold/internal/stats"
	"github.com/cold-diffusion/cold/internal/text"
)

// This file owns the /v1 scoring wire contract. A score item is one
// query of POST /v1/score/batch; each single-score route is a one-item
// view of it, with the kind named by the path instead of a "kind" key.
// The replica and the cluster router read, validate and render items
// only through the types and functions below.

// Routes are the single-score routes. A route's name — its metric
// label and priority default — is its kind.
var Routes = []struct {
	Kind Kind
	Path string
}{
	{KindRetweet, "/v1/predict/retweet"},
	{KindLink, "/v1/predict/link"},
	{KindTime, "/v1/predict/time"},
	{KindTopics, "/v1/topics"},
}

// RouteTier maps a route name to the tier it serves when the client
// sends no X-Cold-Priority: single predictions are interactive, bulk
// scoring is batch, ranking reads are rank. Background is never a
// default — only self-declared (ingest fold-in, warmers, backfills).
func RouteTier(route string) overload.Tier {
	switch route {
	case "batch":
		return overload.TierBatch
	case "rank":
		return overload.TierRank
	default:
		return overload.TierInteractive
	}
}

// Routing is the routing view of a score item: its kind and the fields
// that can name its routing user. The router decodes only this per
// batch item; every other key, words included, is skipped without
// allocating.
type Routing struct {
	Kind      Kind `json:"kind,omitempty"`
	Candidate *int `json:"candidate,omitempty"`
	From      *int `json:"from,omitempty"`
	User      *int `json:"user,omitempty"`
}

// RoutingUser names the item's routing user: the user whose
// behavioural state answers the query, and so whose shard owns it —
// the candidate for retweet, the link source for link, the posting
// user otherwise.
func (r *Routing) RoutingUser() (field string, user *int) {
	switch r.Kind {
	case KindRetweet:
		return "candidate", r.Candidate
	case KindLink:
		return "from", r.From
	default:
		return "user", r.User
	}
}

// ScoreItem is the wire shape of one scoring query: the routing view
// plus the remaining fields of every kind. Kind selects which are read.
type ScoreItem struct {
	Routing
	Publisher *int  `json:"publisher,omitempty"`
	To        *int  `json:"to,omitempty"`
	Post      *int  `json:"post,omitempty"`
	Words     []int `json:"words,omitempty"`
	TopN      int   `json:"topn,omitempty"`
}

// Scope is what Build validates an item against.
type Scope struct {
	Info ModelInfo
	// Post resolves a post index to its words; nil means no dataset is
	// loaded, so items must carry words.
	Post func(post int) (text.BagOfWords, error)
	// Owner refuses a routing user this replica does not own (code
	// wrong_shard); nil means unsharded.
	Owner func(field string, user int) *envelope.Error
}

// Build validates the item against sc and resolves it to an engine
// request. Every route checks in the same order: the kind, then its
// users with the routing user's ownership as soon as it is known, then
// the post content.
func (it *ScoreItem) Build(sc *Scope) (ScoreRequest, *envelope.Error) {
	req := ScoreRequest{Kind: it.Kind}
	var ei *envelope.Error
	switch it.Kind {
	case KindRetweet:
		if req.Publisher, ei = sc.user("publisher", it.Publisher); ei != nil {
			return req, ei
		}
	case KindLink, KindTime, KindTopics:
	default:
		return req, badRequest(fmt.Sprintf("unknown kind %q (want retweet|link|time|topics)", it.Kind))
	}
	field, v := it.RoutingUser()
	user, ei := sc.user(field, v)
	if ei != nil {
		return req, ei
	}
	if sc.Owner != nil {
		if ei := sc.Owner(field, user); ei != nil {
			return req, ei
		}
	}
	switch it.Kind {
	case KindRetweet:
		req.Candidate = user
		req.Words, ei = sc.words(it)
	case KindLink:
		req.From = user
		req.To, ei = sc.user("to", it.To)
	default:
		req.User = user
		req.Words, ei = sc.words(it)
	}
	return req, ei
}

func badRequest(msg string) *envelope.Error {
	return &envelope.Error{Code: "bad_request", Message: msg}
}

func (sc *Scope) user(field string, v *int) (int, *envelope.Error) {
	if v == nil {
		return 0, badRequest("missing field " + field)
	}
	if *v < 0 || *v >= sc.Info.Users {
		return 0, badRequest(fmt.Sprintf("%s %d out of range [0,%d)", field, *v, sc.Info.Users))
	}
	return *v, nil
}

// words resolves the post content: explicit word ids, or a post index.
func (sc *Scope) words(it *ScoreItem) (text.BagOfWords, *envelope.Error) {
	switch {
	case it.Words != nil:
		for _, id := range it.Words {
			if id < 0 || (sc.Info.Vocab > 0 && id >= sc.Info.Vocab) {
				return text.BagOfWords{}, badRequest(fmt.Sprintf("word id %d out of range [0,%d)", id, sc.Info.Vocab))
			}
		}
		return text.NewBagOfWords(it.Words), nil
	case it.Post == nil:
		return text.BagOfWords{}, badRequest("need either post or words")
	case sc.Post == nil:
		return text.BagOfWords{}, badRequest("no dataset loaded on this server; pass words instead of a post index")
	}
	b, err := sc.Post(*it.Post)
	if err != nil {
		return text.BagOfWords{}, badRequest(err.Error())
	}
	return b, nil
}

type topicWeight struct {
	Topic  int     `json:"topic"`
	Weight float64 `json:"weight"`
}

// itemValue is the kind's value field of a scored item: the part the
// batch slot and the single-route body share.
type itemValue struct {
	Score  *float64      `json:"score,omitempty"`
	Slice  *int          `json:"slice,omitempty"`
	Topics []topicWeight `json:"topics,omitempty"`
}

// valueOf renders a successful result's value field; topics are the
// topn heaviest entries of the posterior (default 3).
func valueOf(kind Kind, res *ScoreResult, topn int) itemValue {
	switch kind {
	case KindRetweet, KindLink:
		v := res.Score
		return itemValue{Score: &v}
	case KindTime:
		v := res.Slice
		return itemValue{Slice: &v}
	}
	post := res.Topics
	if topn <= 0 || topn > len(post) {
		topn = min(3, len(post))
	}
	top := make([]topicWeight, 0, topn)
	for _, k := range stats.ArgTopK(post, topn) {
		top = append(top, topicWeight{Topic: k, Weight: post[k]})
	}
	return itemValue{Topics: top}
}

// ItemResult is the per-item slot of a batch response: status "ok"
// with the kind's value field, or status "error" with the error shape
// of the envelope. ModelKey and Degraded are set only on a slot the
// cluster router answered from its own fallback engine.
type ItemResult struct {
	Status string `json:"status"`
	itemValue
	Error    *envelope.Error `json:"error,omitempty"`
	ModelKey string          `json:"model_key,omitempty"`
	Degraded bool            `json:"degraded,omitempty"`
}

// Slot renders one engine result as its batch slot.
func Slot(kind Kind, res *ScoreResult, topn int) ItemResult {
	if res.Err != nil {
		return ErrorSlot(itemError(res.Err))
	}
	return ItemResult{Status: "ok", itemValue: valueOf(kind, res, topn)}
}

// ErrorSlot renders a failed batch slot.
func ErrorSlot(ei *envelope.Error) ItemResult {
	return ItemResult{Status: "error", Error: ei}
}

// SingleResponse is a single route's 200 body: the batch slot's value
// field plus the identity of the snapshot that scored it. A topics body
// has no degraded flag: a degraded server cannot answer topics at all.
type SingleResponse struct {
	itemValue
	Generation uint64 `json:"generation"`
	ModelKey   string `json:"model_key,omitempty"`
	Degraded   *bool  `json:"degraded,omitempty"`
}

// Single renders a successful result as its single route's body.
func Single(kind Kind, res *ScoreResult, topn int, generation uint64, key string, degraded bool) SingleResponse {
	out := SingleResponse{itemValue: valueOf(kind, res, topn), Generation: generation, ModelKey: key}
	if kind != KindTopics {
		out.Degraded = &degraded
	}
	return out
}
