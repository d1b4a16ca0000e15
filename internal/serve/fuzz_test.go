package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
)

// FuzzScoreBatchBody feeds raw bodies to the batch endpoint on a tiny
// model. Whatever the bytes, the handler must not panic, must answer
// 200 or 400, and a 200 must carry exactly one ok-or-error slot per
// item, in order.
func FuzzScoreBatchBody(f *testing.F) {
	for _, seed := range []string{
		`{"items":[{"kind":"retweet","publisher":0,"candidate":1,"post":7},{"kind":"link","from":0,"to":1},{"kind":"time","user":5,"post":20},{"kind":"topics","user":3,"post":14,"topn":3},{"kind":"bogus"}]}`,
		`{"items":[{"kind":"retweet","publisher":4,"candidate":6,"words":[1,2,3,2]}]}`,
		`{"items":[{"kind":"retweet","publisher":10000,"candidate":1,"post":0},{"kind":"retweet","publisher":0,"candidate":1,"words":[-4]}]}`,
		`{"items":[{"kind":"retweet","publisher":0,"candidate":1,"post":1073741824},{"kind":"link","from":0}]}`,
		`{"items":[{"kind":"retweet","publisher":0,"candidate":1,"post":0,"bogus":true}]}`,
		`{"items":[]}`,
		`{"items":null}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	var (
		once sync.Once
		srv  *Server
	)
	f.Fuzz(func(t *testing.T, body []byte) {
		once.Do(func() {
			m, data := testModel(t)
			path := filepath.Join(t.TempDir(), "model.json")
			if err := m.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			mgr := NewManager(ManagerConfig{Path: path, TopComm: 3})
			if err := mgr.Reload(); err != nil {
				t.Fatal(err)
			}
			srv = New(Config{MaxBatchItems: 64}, mgr, data)
		})
		if srv == nil {
			t.Skip("fixture failed to build in an earlier input")
		}
		rec := httptest.NewRecorder()
		srv.handleScoreBatch(rec, httptest.NewRequest("POST", "/v1/score/batch", bytes.NewReader(body)))
		switch rec.Code {
		case 200:
		case 400:
			return
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		var in struct {
			Items []json.RawMessage `json:"items"`
		}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&in); err != nil {
			t.Fatalf("200 for a body whose items do not decode: %v", err)
		}
		var out struct {
			Results []ItemResult `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("response does not decode: %v\n%s", err, rec.Body)
		}
		if len(out.Results) != len(in.Items) {
			t.Fatalf("%d slots for %d items", len(out.Results), len(in.Items))
		}
		for i, r := range out.Results {
			if r.Status != "ok" && (r.Status != "error" || r.Error == nil) {
				t.Fatalf("slot %d = %+v, want ok or an error with detail", i, r)
			}
		}
	})
}
