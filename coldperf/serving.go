package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/cold-diffusion/cold/internal/cluster"
	"github.com/cold-diffusion/cold/internal/corpus"
	"github.com/cold-diffusion/cold/internal/ingest"
	"github.com/cold-diffusion/cold/internal/obs"
	"github.com/cold-diffusion/cold/internal/serve"
)

const (
	routedShards = 2
	foldEvery    = 250 * time.Millisecond
)

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	hs   *http.Server
	url  string
	errc chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), errc: make(chan error, 1)}
	go func() { l.errc <- l.hs.Serve(ln) }()
	return l, nil
}

// close shuts the server down and waits for its Serve to return.
func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.errc; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// replica is one serve.Server with its model manager and metrics.
type replica struct {
	mgr *serve.Manager
	srv *serve.Server
	met *serve.Metrics
	reg *obs.Registry
	l   *listener
}

// series reads one series from the replica's Prometheus exposition, for
// the instruments serve.Metrics does not export; 0 when absent.
func (r *replica) series(name string) float64 {
	var buf bytes.Buffer
	if err := r.reg.WritePrometheus(&buf); err != nil {
		return 0
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, _ := strconv.ParseFloat(v, 64)
			return f
		}
	}
	return 0
}

func newReplica(modelPath string, data *corpus.Dataset, shard, shards int, h func(http.Handler) http.Handler, reloader func(*serve.Manager) error) (*replica, error) {
	reg := obs.NewRegistry()
	met := serve.NewMetrics(reg)
	mgr := serve.NewManager(serve.ManagerConfig{Path: modelPath, Metrics: met})
	if err := reloader(mgr); err != nil {
		return nil, err
	}
	cfg := serve.Config{Metrics: met}
	if shards > 1 {
		cfg.ShardIndex, cfg.ShardCount = shard, shards
		cfg.ShardOwner = func(user int) bool { return cluster.ShardOf(user, shards) == shard }
	}
	srv := serve.New(cfg, mgr, data)
	l, err := listen(h(srv.Handler()))
	if err != nil {
		return nil, err
	}
	return &replica{mgr: mgr, srv: srv, met: met, reg: reg, l: l}, nil
}

// deployment is the system under test: two shard replicas behind the
// router, and one unrouted replica fed by the streaming ingester.
type deployment struct {
	routed  []*replica
	router  *listener
	fresh   *replica
	ing     *ingest.Ingester
	ingMet  *ingest.Metrics
	ingest  *listener
	reloads *reloadLog
	stop    context.CancelFunc
}

// setup times one corpus.LoadFile and one deployment build from fresh
// directories: every replica's Manager.Reload, the servers, the router and
// the ingester with its WAL. The sum is one sample of the set-up figure.
func (b *bench) setup(t *trainer) (*deployment, error) {
	if err := t.load(); err != nil {
		return nil, err
	}
	dir := filepath.Join(b.dir, fmt.Sprintf("deploy-%d", len(b.setupS)))
	publish := filepath.Join(dir, "publish", "model.gob")
	if err := copyFile(t.modelPath, publish); err != nil {
		return nil, err
	}
	start := time.Now()
	d, err := b.deploy(t, dir, publish)
	if err != nil {
		return nil, err
	}
	b.setupS = append(b.setupS, t.loadS[len(t.loadS)-1]+time.Since(start).Seconds())
	return d, nil
}

func (b *bench) deploy(t *trainer, dir, publish string) (*deployment, error) {
	d := &deployment{}
	reload := func(m *serve.Manager) error { return m.Reload() }
	for s := 0; s < routedShards; s++ {
		wrap := func(h http.Handler) http.Handler { return b.tr.handler("route", "replica", h) }
		r, err := newReplica(t.modelPath, t.data, s, routedShards, wrap, reload)
		if err != nil {
			d.close()
			return nil, err
		}
		d.routed = append(d.routed, r)
	}
	shards := make([][]string, routedShards)
	for s, r := range d.routed {
		shards[s] = []string{r.l.url}
	}
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.MaxIdleConnsPerHost = 64 // the router's own default pool
	rt, err := cluster.New(cluster.Config{
		Shards: shards,
		Seed:   int64(b.seed),
		Client: &http.Client{Transport: forwardTransport{t: b.tr, stage: "route", base: base}},
	})
	if err != nil {
		d.close()
		return nil, err
	}
	if d.router, err = listen(b.tr.handler("route", "router", rt.Handler())); err != nil {
		d.close()
		return nil, err
	}

	d.ingMet = ingest.NewMetrics(obs.NewRegistry())
	d.reloads = &reloadLog{tr: b.tr, applied: d.ingMet.Applied.Value, snaps: map[uint64]*serve.Snapshot{}}
	wrap := func(h http.Handler) http.Handler { return b.tr.handler("mixed", "replica", h) }
	if d.fresh, err = newReplica(publish, t.data, 0, 1, wrap, d.reloads.attach); err != nil {
		d.close()
		return nil, err
	}
	d.ing, _, err = ingest.New(ingest.Config{
		WALDir:      filepath.Join(dir, "wal"),
		Base:        t.model,
		PublishPath: publish,
		Reloader:    d.reloads,
		FoldEvery:   foldEvery,
		Metrics:     d.ingMet,
	})
	if err != nil {
		d.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.stop = cancel
	d.ing.Start(ctx)
	if d.ingest, err = listen(b.tr.handler("ingest", "ingest", ingest.NewServer(d.ing, nil).Handler())); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// drainIngest stops the ingest endpoint and drains the ingester: the
// queue is folded, checkpointed and published, and the WAL closed.
func (d *deployment) drainIngest() error {
	var err error
	if d.ingest != nil {
		err = d.ingest.close()
		d.ingest = nil
	}
	if d.ing != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if derr := d.ing.Drain(ctx); derr != nil && err == nil {
			err = derr
		}
		d.stop()
	}
	return err
}

// close stops everything the deployment started and waits for it.
func (d *deployment) close() error {
	err := d.drainIngest()
	ls := []*listener{d.router}
	for _, r := range append([]*replica{d.fresh}, d.routed...) {
		if r != nil {
			ls = append(ls, r.l)
		}
	}
	for _, l := range ls {
		if l != nil {
			if cerr := l.close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	d.router, d.fresh, d.routed = nil, nil, nil
	return err
}

// reloadLog is the ingester's Reloader: it reloads the fresh replica's
// Manager and remembers, for every generation, how many stream records it
// includes and its snapshot, so served scores can be matched to the
// records they reflect and checked against the generation's engine.
type reloadLog struct {
	mgr     *serve.Manager
	tr      *tracer
	applied func() uint64

	mu    sync.Mutex
	marks []genMark
	snaps map[uint64]*serve.Snapshot
	msecs []float64 // duration of each reload
}

// genMark says generation gen includes stream records 1..applied.
type genMark struct {
	gen     uint64
	applied uint64
}

// keepSnaps bounds the snapshots held for the bit-equality check; a
// response is checked on arrival, so only the newest few can be asked for.
const keepSnaps = 8

// attach makes m the managed replica and loads its first generation.
func (l *reloadLog) attach(m *serve.Manager) error {
	l.mgr = m
	return l.reload(false)
}

// Reload is the ingester's hook after each publish.
func (l *reloadLog) Reload() error { return l.reload(true) }

func (l *reloadLog) reload(published bool) error {
	applied := l.applied()
	start := time.Now()
	err := l.mgr.Reload()
	end := time.Now()
	if err != nil {
		return err
	}
	snap := l.mgr.Current()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.marks = append(l.marks, genMark{snap.Generation, applied})
	l.snaps[snap.Generation] = snap
	delete(l.snaps, snap.Generation-keepSnaps)
	if published {
		l.tr.record(0, "ingest", "reload", start, end)
		l.msecs = append(l.msecs, ms(end.Sub(start).Nanoseconds()))
	}
	return nil
}

func (l *reloadLog) snapshot(gen uint64) *serve.Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snaps[gen]
}

func copyFile(src, dst string) error {
	raw, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	return os.WriteFile(dst, raw, 0o644)
}
