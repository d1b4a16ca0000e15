package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/cold-diffusion/cold/internal/core"
	"github.com/cold-diffusion/cold/internal/envelope"
	"github.com/cold-diffusion/cold/internal/faultinject"
)

// errorBody is the error envelope the tests decode non-2xx bodies into.
type errorBody = envelope.Body

// scoreResponse decodes the body of the retweet and link routes.
type scoreResponse struct {
	Score      float64 `json:"score"`
	Generation uint64  `json:"generation"`
	ModelKey   string  `json:"model_key,omitempty"`
	Degraded   bool    `json:"degraded"`
}

// testServer runs a Server on a loopback listener and tears it down
// (via drain) when the test ends.
type testServer struct {
	t      *testing.T
	base   string
	cancel context.CancelFunc
	done   chan error
}

func startServer(t *testing.T, cfg Config, mgr *Manager, withData bool) *testServer {
	t.Helper()
	cfg.Logf = t.Logf
	var srv *Server
	if withData {
		_, data := testModel(t)
		srv = New(cfg, mgr, data)
	} else {
		srv = New(cfg, mgr, nil)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ts := &testServer{
		t:      t,
		base:   "http://" + ln.Addr().String(),
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { ts.done <- srv.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-ts.done:
		case <-time.After(10 * time.Second):
			t.Error("server did not shut down")
		}
	})
	return ts
}

// call does one JSON round trip and decodes the response into out
// (which may be nil).
func (ts *testServer) call(method, path string, body any, out any) (int, http.Header) {
	ts.t.Helper()
	var buf io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			ts.t.Fatal(err)
		}
		buf = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, ts.base+path, buf)
	if err != nil {
		ts.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		ts.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		ts.t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			ts.t.Fatalf("%s %s: decode %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode, resp.Header
}

func loadedManager(t *testing.T) (*Manager, string) {
	t.Helper()
	path := saveModel(t, filepath.Join(t.TempDir(), "model.json"))
	mgr := newTestManager(t, path)
	if err := mgr.Reload(); err != nil {
		t.Fatal(err)
	}
	return mgr, path
}

func TestEndpointsHappyPath(t *testing.T) {
	mgr, _ := loadedManager(t)
	ts := startServer(t, Config{}, mgr, true)

	var health struct {
		Status string `json:"status"`
	}
	if code, _ := ts.call("GET", "/v1/healthz", nil, &health); code != 200 || health.Status != "ok" {
		t.Fatalf("healthz = %d %+v", code, health)
	}

	var ready struct {
		State string `json:"state"`
	}
	if code, _ := ts.call("GET", "/v1/readyz", nil, &ready); code != 200 || ready.State != "ready" {
		t.Fatalf("readyz = %d %+v", code, ready)
	}

	var score scoreResponse
	code, _ := ts.call("POST", "/v1/predict/retweet",
		map[string]any{"publisher": 0, "candidate": 1, "post": 2}, &score)
	if code != 200 || score.Score < 0 || score.Score > 1 || score.Degraded {
		t.Fatalf("retweet = %d %+v", code, score)
	}
	// Same query by explicit words.
	code, _ = ts.call("POST", "/v1/predict/retweet",
		map[string]any{"publisher": 0, "candidate": 1, "words": []int{1, 2, 3}}, &score)
	if code != 200 {
		t.Fatalf("retweet by words = %d", code)
	}

	code, _ = ts.call("POST", "/v1/predict/link", map[string]any{"from": 0, "to": 1}, &score)
	if code != 200 || score.Score < 0 || score.Score > 1 {
		t.Fatalf("link = %d %+v", code, score)
	}

	var slice struct {
		Slice int `json:"slice"`
	}
	code, _ = ts.call("POST", "/v1/predict/time", map[string]any{"user": 0, "post": 0}, &slice)
	if code != 200 || slice.Slice < 0 {
		t.Fatalf("time = %d %+v", code, slice)
	}

	var topics struct {
		Topics []struct {
			Topic  int     `json:"topic"`
			Weight float64 `json:"weight"`
		} `json:"topics"`
	}
	code, _ = ts.call("POST", "/v1/topics", map[string]any{"user": 0, "post": 0, "topn": 2}, &topics)
	if code != 200 || len(topics.Topics) != 2 {
		t.Fatalf("topics = %d %+v", code, topics)
	}

	var model struct {
		Users int `json:"users"`
	}
	m, _ := testModel(t)
	if code, _ := ts.call("GET", "/v1/model", nil, &model); code != 200 || model.Users != m.U {
		t.Fatalf("model = %d %+v, want %d users", code, model, m.U)
	}
}

func TestInputValidation(t *testing.T) {
	mgr, _ := loadedManager(t)
	ts := startServer(t, Config{}, mgr, true)
	for name, body := range map[string]any{
		"missing publisher":  map[string]any{"candidate": 1, "post": 0},
		"user out of range":  map[string]any{"publisher": 10_000, "candidate": 1, "post": 0},
		"post out of range":  map[string]any{"publisher": 0, "candidate": 1, "post": 1 << 30},
		"neither post/words": map[string]any{"publisher": 0, "candidate": 1},
		"bad word id":        map[string]any{"publisher": 0, "candidate": 1, "words": []int{-4}},
		"unknown field":      map[string]any{"publisher": 0, "candidate": 1, "post": 0, "bogus": true},
	} {
		var e errorBody
		if code, _ := ts.call("POST", "/v1/predict/retweet", body, &e); code != 400 || e.Error.Message == "" || e.Error.Code != "bad_request" {
			t.Errorf("%s: code %d, error %q; want 400 with message", name, code, e.Error)
		}
	}
	// Wrong method.
	if code, _ := ts.call("GET", "/v1/predict/retweet", nil, nil); code != 405 {
		t.Errorf("GET on predict = %d, want 405", code)
	}
}

// TestShedsLoadAndRecovers is acceptance (a): with the in-flight pool
// full, extra requests get 429 + Retry-After immediately, and once load
// drains the server serves normally again.
func TestShedsLoadAndRecovers(t *testing.T) {
	defer faultinject.Reset()
	mgr, _ := loadedManager(t)
	// QueueCap/LimitFloor < 0 pin the old static-pool semantics: a full
	// pool sheds instantly instead of queuing.
	ts := startServer(t, Config{MaxInFlight: 2, LimitFloor: -1, QueueCap: -1,
		RequestTimeout: 30 * time.Second, RetryAfter: 3 * time.Second}, mgr, true)

	release := make(chan struct{})
	started := make(chan struct{}, 16)
	faultinject.Set(faultinject.ServeHandler, func(...any) {
		started <- struct{}{}
		<-release
	})

	body := map[string]any{"publisher": 0, "candidate": 1, "post": 0}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, _ := ts.call("POST", "/v1/predict/retweet", body, nil); code != 200 {
				t.Errorf("occupying request got %d", code)
			}
		}()
	}
	<-started
	<-started // both slots taken and parked inside the handler

	var e errorBody
	code, hdr := ts.call("POST", "/v1/predict/retweet", body, &e)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overload request = %d, want 429", code)
	}
	// The hint is the 3s base jittered ±50%, rounded up to whole seconds.
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 2 || ra > 5 {
		t.Fatalf("Retry-After = %q, want an integer in [2,5]", hdr.Get("Retry-After"))
	}
	if ms := e.Error.RetryAfterMS; ms < 1500 || ms > 4500 {
		t.Fatalf("retry_after_ms = %d, want within ±50%% of 3000", ms)
	}

	close(release)
	wg.Wait()
	faultinject.Clear(faultinject.ServeHandler)

	// Recovered: the same request now succeeds.
	if code, _ := ts.call("POST", "/v1/predict/retweet", body, nil); code != 200 {
		t.Fatalf("post-recovery request = %d, want 200", code)
	}
	var st struct {
		Shed uint64 `json:"shed"`
	}
	if code, _ := ts.call("GET", "/v1/stats", nil, &st); code != 200 || st.Shed != 1 {
		t.Fatalf("stats = %d %+v, want shed=1", code, st)
	}
}

// A handler panic (injected) becomes a 500 and the process keeps serving.
func TestPanicContainedPerRequest(t *testing.T) {
	defer faultinject.Reset()
	mgr, _ := loadedManager(t)
	ts := startServer(t, Config{}, mgr, true)
	faultinject.Set(faultinject.ServeHandler, func(...any) { panic("injected handler bug") })

	body := map[string]any{"publisher": 0, "candidate": 1, "post": 0}
	var e errorBody
	code, _ := ts.call("POST", "/v1/predict/retweet", body, &e)
	if code != 500 || !strings.Contains(e.Error.Message, "injected handler bug") {
		t.Fatalf("panicking request = %d %+v, want 500", code, e)
	}
	faultinject.Clear(faultinject.ServeHandler)
	if code, _ := ts.call("POST", "/v1/predict/retweet", body, nil); code != 200 {
		t.Fatalf("server did not survive the panic: next request = %d", code)
	}
}

// A slow handler (injected) is cut off by the per-request deadline.
func TestSlowHandlerHitsDeadline(t *testing.T) {
	defer faultinject.Reset()
	mgr, _ := loadedManager(t)
	ts := startServer(t, Config{RequestTimeout: 50 * time.Millisecond}, mgr, true)
	faultinject.Set(faultinject.ServeHandler, func(...any) { time.Sleep(300 * time.Millisecond) })

	var e errorBody
	start := time.Now()
	code, _ := ts.call("POST", "/v1/predict/retweet",
		map[string]any{"publisher": 0, "candidate": 1, "post": 0}, &e)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("slow request = %d, want 503", code)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline response took %v", elapsed)
	}
	if e.Error.Code != "deadline_exceeded" || !strings.Contains(e.Error.Message, "deadline") {
		t.Fatalf("timeout body = %+v", e)
	}
}

// TestSIGTERMDrains is acceptance (b): on SIGTERM the server finishes
// in-flight requests, refuses new ones, and exits before the drain
// deadline.
func TestSIGTERMDrains(t *testing.T) {
	defer faultinject.Reset()
	mgr, _ := loadedManager(t)

	cfg := Config{RequestTimeout: 30 * time.Second, DrainTimeout: 10 * time.Second, Logf: t.Logf}
	srv := New(cfg, mgr, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The real signal wiring: SIGTERM cancels the serve context.
	ctx, stop := signalContext(t)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Park one request inside a handler.
	inHandler := make(chan struct{}, 1)
	release := make(chan struct{})
	faultinject.Set(faultinject.ServeHandler, func(...any) {
		inHandler <- struct{}{}
		<-release
	})
	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/predict/retweet", "application/json",
			strings.NewReader(`{"publisher":0,"candidate":1,"words":[1]}`))
		if err != nil {
			inflight <- -1
			return
		}
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-inHandler

	// Deliver a real SIGTERM to ourselves.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// Drain must wait for the in-flight request; release it and expect
	// it to complete with 200, then Serve to return cleanly.
	time.Sleep(50 * time.Millisecond) // let Shutdown begin
	close(release)
	if code := <-inflight; code != 200 {
		t.Fatalf("in-flight request during drain finished with %d, want 200", code)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v, want clean drain", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	// The listener is gone: new connections are refused.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// signalContext mirrors coldserve's signal wiring inside the test
// process: SIGTERM cancels the returned context instead of killing the
// test binary.
func signalContext(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return signal.NotifyContext(context.Background(), syscall.SIGTERM)
}

// TestCorruptReloadUnderTraffic is acceptance (c): while requests flow,
// a corrupt model dropped into the watch path is rejected and the
// last-good model keeps serving; a valid model then takes over without
// dropping a request.
func TestCorruptReloadUnderTraffic(t *testing.T) {
	mgr, path := loadedManager(t)
	ts := startServer(t, Config{MaxInFlight: 32}, mgr, true)
	goodGen := mgr.Current().Generation

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := map[string]any{"publisher": 0, "candidate": 1, "post": 0}
			for {
				select {
				case <-stop:
					return
				default:
				}
				var score scoreResponse
				code, _ := ts.call("POST", "/v1/predict/retweet", body, &score)
				if code != 200 {
					select {
					case errs <- fmt.Sprintf("request failed with %d during reload", code):
					default:
					}
					return
				}
			}
		}()
	}

	// Corrupt the model on disk and force a reload: rejected, old model
	// keeps serving.
	corruptFile(t, path)
	var e errorBody
	if code, _ := ts.call("POST", "/v1/model/reload", nil, &e); code != http.StatusBadGateway || e.Error.Message == "" {
		t.Errorf("corrupt reload = %d %+v, want 502", code, e)
	}
	var ready struct {
		State      string `json:"state"`
		Generation uint64 `json:"generation"`
		LastError  string `json:"last_error"`
	}
	if code, _ := ts.call("GET", "/v1/readyz", nil, &ready); code != 200 ||
		ready.State != "ready" || ready.Generation != goodGen || ready.LastError == "" {
		t.Errorf("readyz after corrupt reload = %d %+v", code, ready)
	}

	// Repair the model: the reload succeeds and traffic never blips.
	saveModel(t, path)
	var st Status
	if code, _ := ts.call("POST", "/v1/model/reload", nil, &st); code != 200 || st.Generation != goodGen+1 {
		t.Errorf("repaired reload = %d %+v", code, st)
	}

	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestDegradedModeServes is acceptance (d): with no loadable model the
// server answers from the fallback predictor, /readyz reports degraded,
// and a model appearing later restores full service.
func TestDegradedModeServes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	mgr := NewManager(ManagerConfig{
		Path: path, TopComm: 3, Logf: t.Logf,
		Backoff: Backoff{Base: time.Microsecond, Max: time.Microsecond, Factor: 1, Attempts: 2},
	})
	if err := mgr.LoadInitial(context.Background()); err == nil {
		t.Fatal("initial load unexpectedly succeeded")
	}
	_, data := testModel(t)
	fb, err := core.NewFallbackPredictor(data)
	if err != nil {
		t.Fatal(err)
	}
	mgr.SetFallback(NewFallbackEngine(fb))
	ts := startServer(t, Config{}, mgr, true)

	var ready struct {
		State    string `json:"state"`
		Degraded bool   `json:"degraded"`
	}
	if code, _ := ts.call("GET", "/v1/readyz", nil, &ready); code != 200 ||
		ready.State != "degraded" || !ready.Degraded {
		t.Fatalf("readyz = %d %+v, want degraded", code, ready)
	}

	var score scoreResponse
	body := map[string]any{"publisher": 0, "candidate": 1, "post": 0}
	if code, _ := ts.call("POST", "/v1/predict/retweet", body, &score); code != 200 ||
		!score.Degraded || score.Score <= 0 || score.Score >= 1 {
		t.Fatalf("degraded retweet = %d %+v", code, score)
	}
	if code, _ := ts.call("POST", "/v1/predict/link", map[string]any{"from": 0, "to": 1}, &score); code != 200 || !score.Degraded {
		t.Fatalf("degraded link = %d %+v", code, score)
	}
	var slice struct {
		Slice    int  `json:"slice"`
		Degraded bool `json:"degraded"`
	}
	if code, _ := ts.call("POST", "/v1/predict/time", map[string]any{"user": 0, "post": 0}, &slice); code != 200 || !slice.Degraded {
		t.Fatalf("degraded time = %d %+v", code, slice)
	}
	// Topics genuinely need the model: honest 503, not silent garbage.
	var e errorBody
	if code, _ := ts.call("POST", "/v1/topics", map[string]any{"user": 0, "post": 0}, &e); code != 503 ||
		!strings.Contains(e.Error.Message, "degraded") {
		t.Fatalf("degraded topics = %d %+v, want 503", code, e)
	}

	// A model appears; reload restores full service.
	saveModel(t, path)
	if code, _ := ts.call("POST", "/v1/model/reload", nil, nil); code != 200 {
		t.Fatalf("recovery reload = %d", code)
	}
	if code, _ := ts.call("GET", "/v1/readyz", nil, &ready); code != 200 || ready.State != "ready" {
		t.Fatalf("readyz after recovery = %d %+v", code, ready)
	}
	if code, _ := ts.call("POST", "/v1/predict/retweet", body, &score); code != 200 || score.Degraded {
		t.Fatalf("post-recovery retweet = %d %+v", code, score)
	}
}

func TestNotReadyBeforeAnyModel(t *testing.T) {
	mgr := newTestManager(t, filepath.Join(t.TempDir(), "absent.json"))
	ts := startServer(t, Config{}, mgr, false)
	var ready struct {
		State string `json:"state"`
	}
	if code, _ := ts.call("GET", "/v1/readyz", nil, &ready); code != 503 || ready.State != "starting" {
		t.Fatalf("readyz = %d %+v, want 503 starting", code, ready)
	}
	var e errorBody
	if code, _ := ts.call("POST", "/v1/predict/retweet",
		map[string]any{"publisher": 0, "candidate": 1, "words": []int{1}}, &e); code != 503 {
		t.Fatalf("predict before ready = %d, want 503", code)
	}
}
