package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one successful request of a load loop.
type sample struct {
	lat  float64 // ms: completion − due (open) or completion − send (closed)
	late float64 // ms, open loop only: send − due
}

// loop is what one load loop measured.
type loop struct {
	samples []sample
	span    float64 // seconds the loop was scheduled to run
	// rounds holds the samples of each round when a phase is measured
	// in separate rounds.
	rounds [][]sample
}

// add keeps o's samples as one more round of l.
func (l *loop) add(o *loop) {
	l.rounds = append(l.rounds, o.samples)
	l.samples = append(l.samples, o.samples...)
}

// perRound is stat of each round that has samples (see overRounds).
func (l *loop) perRound(stat func([]sample) float64) []float64 {
	var xs []float64
	for _, r := range l.rounds {
		if len(r) > 0 {
			xs = append(xs, stat(r))
		}
	}
	return xs
}

func lats(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.lat
	}
	return out
}

// closedLoop runs conns clients that each send their next request as soon
// as the previous one completes, until dur has passed. do(i) sends the
// i-th request of the stream.
func closedLoop(conns int, dur time.Duration, p *phase, do func(i int) error) *loop {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	return runWorkers(conns, p, dur, func(add func(s sample, err error)) {
		for time.Now().Before(deadline) {
			i := int(next.Add(1) - 1)
			sent := time.Now()
			err := do(i)
			done := time.Now()
			add(sample{lat: ms(done.Sub(sent).Nanoseconds())}, err)
		}
	})
}

// openLoop sends request i at start + i/rate for dur, over conns
// connections. A worker takes the next due request in order, so a stalled
// request delays the ones behind it; each latency is timed from the due
// time, and the generator's lateness (send − due) is kept so a stalled
// generator is not read as a slow server.
func openLoop(rate float64, conns int, dur time.Duration, p *phase, do func(i int) error) *loop {
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	start := time.Now()
	return runWorkers(conns, p, dur, func(add func(s sample, err error)) {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			due := start.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			sent := time.Now()
			err := do(i)
			add(sample{lat: ms(time.Since(due).Nanoseconds()), late: ms(sent.Sub(due).Nanoseconds())}, err)
		}
	})
}

func runWorkers(conns int, p *phase, dur time.Duration, work func(add func(s sample, err error))) *loop {
	out := &loop{span: dur.Seconds()}
	var mu sync.Mutex
	add := func(s sample, err error) {
		mu.Lock()
		defer mu.Unlock()
		p.note(err)
		if err == nil {
			out.samples = append(out.samples, s)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(add)
		}()
	}
	wg.Wait()
	return out
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = conns
	tr.MaxIdleConnsPerHost = conns
	return &http.Client{Transport: tr, Timeout: 10 * time.Second}
}

// post sends body and returns the response body of a 200 answer.
func post(c *http.Client, url string, body []byte, id uint64) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set(idHeader, strconv.FormatUint(id, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %.200s", url, resp.StatusCode, raw)
	}
	return raw, nil
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
