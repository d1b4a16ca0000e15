package cluster

import (
	"encoding/json"
	"testing"

	"github.com/cold-diffusion/cold/internal/serve"
)

// FuzzRoutingItem feeds raw batch items to the router's per-item
// routing decode. Whatever the bytes, it must not panic, and it must
// either name a shard in range or answer an error slot.
func FuzzRoutingItem(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"retweet","publisher":0,"candidate":1,"words":[1]}`,
		`{"kind":"topics","user":3,"post":0}`,
		`{"kind":"link","from":7,"to":0}`,
		`{"kind":"time","user":1,"words":[1]}`,
		`{"kind":"retweet","publisher":0,"post":0}`,
		`{"kind":"time","user":-3,"post":0}`,
		`{"kind":"bogus","user":1}`,
		`{"kind":"retweet","candidate":9223372036854775807}`,
		`[]`,
		`null`,
	} {
		f.Add([]byte(seed), uint8(2))
	}
	f.Fuzz(func(t *testing.T, raw []byte, n uint8) {
		shards := int(n)%16 + 1
		shard, slot := routeItem(raw, shards)
		if slot == nil {
			if shard < 0 || shard >= shards {
				t.Fatalf("shard %d out of [0,%d) for %q", shard, shards, raw)
			}
			return
		}
		var res serve.ItemResult
		if err := json.Unmarshal(slot, &res); err != nil || res.Status != "error" || res.Error == nil {
			t.Fatalf("unroutable item answered %s, want an error slot", slot)
		}
	})
}
