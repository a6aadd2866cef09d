package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	xsdf "repro"
	"repro/internal/server"
)

type wireStage = server.StageTiming

// daemon is one in-process server set-up: configured like
// `xsdfd -d 2 -method combined` (degradation ladder on, no admission gate,
// default concurrency), logging JSON lines to io.Discard, served on a
// loopback listener and called through keep-alive connections.
type daemon struct {
	fw     *xsdf.Framework
	srv    *server.Server
	url    string
	client *http.Client
	tp     *http.Transport
	done   chan error
}

func jsonDiscardLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, nil))
}

func (b *bench) startDaemon() (*daemon, error) {
	fw, err := b.newFramework(true)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Framework:          fw,
		MaxBodyBytes:       1 << 20,
		MaxTimeout:         30 * time.Second,
		DefaultTimeout:     10 * time.Second,
		StreamWindow:       4,
		StreamWriteTimeout: 10 * time.Second,
		Logger:             jsonDiscardLogger(),
	})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	d := &daemon{fw: fw, srv: srv, url: "http://" + l.Addr().String(), done: make(chan error, 1)}
	d.tp = &http.Transport{MaxIdleConnsPerHost: b.workers, DisableCompression: true}
	d.client = &http.Client{Transport: d.tp}
	go func() { d.done <- srv.Serve(l) }()
	return d, nil
}

// stop drains the server and waits for its Serve loop to return.
func (d *daemon) stop() error {
	d.tp.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// caller is one closed-loop client: it sends its next request only after
// reading the previous response.
type caller struct {
	buf     bytes.Buffer
	res     server.Result
	lat     []time.Duration
	ok      int
	failed  int
	modeReq [2]int // correct completions started untraced / traced
	targets int
	// docGold holds each document's gold counts from its first correct
	// answer; docFailed marks documents with any wrong answer. f_gold
	// counts every document once, so it does not depend on how many
	// requests the run completed.
	docGold   []goldCount
	docSeen   []bool
	docFailed []bool
}

// call posts document i and checks the answer against the reference.
func (b *bench) call(d *daemon, c *caller, i int, traced bool) error {
	tr := b.tr
	if !traced {
		tr = nil
	}
	body := b.in.bodies[i]
	req, err := http.NewRequest(http.MethodPost, d.url+"/v1/disambiguate", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	id := tr.open("server.request", 0, i)
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return fmt.Errorf("request for document %d: %w", i, err)
	}
	c.buf.Reset()
	_, rerr := c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	tr.close(id, 1)
	if rerr != nil {
		return fmt.Errorf("reading response for document %d: %w", i, rerr)
	}
	res := &c.res
	if !b.checkServed(i, resp.StatusCode, c.buf.Bytes(), res) {
		c.failed++
		c.docFailed[i] = true
		return nil
	}
	c.ok++
	c.targets += res.Targets
	c.lat = append(c.lat, lat)
	if !c.docSeen[i] {
		c.docSeen[i] = true
		c.docGold[i].addServed(b.in.ref[i].sensed, res.Assignments, b.in.gold[i])
	}
	if traced {
		tr.wireStages(id, i, res.Stages)
		b.layer.addServed(i, lat, res, len(body), c.buf.Len())
	}
	return nil
}

// checkServed decodes a served answer into res and reports whether it is a
// full-quality 200 whose assignments equal the library's for document i.
func (b *bench) checkServed(i, status int, body []byte, res *server.Result) bool {
	if status != http.StatusOK {
		return false
	}
	*res = server.Result{}
	if err := json.Unmarshal(body, res); err != nil {
		return false
	}
	return res.Quality == xsdf.DegradeNone.String() && res.Degradation == nil &&
		sameAssignments(res.Assignments, b.in.ref[i].assigns)
}

// closedLoop runs b.workers callers against d until next reports that the
// loop is over; next hands out document indices. With a gate, each request
// holds its read lock, so a prober holding the write lock pauses every
// caller. traced (may be nil) selects per request whether it is traced.
func (b *bench) closedLoop(d *daemon, next func() (int, bool), gate *sync.RWMutex, traced *atomic.Bool) ([]*caller, error) {
	n := len(b.in.docs)
	callers := make([]*caller, b.workers)
	errs := make([]error, b.workers)
	var wg sync.WaitGroup
	for w := range callers {
		c := &caller{lat: make([]time.Duration, 0, 1<<14),
			docGold: make([]goldCount, n), docSeen: make([]bool, n), docFailed: make([]bool, n)}
		callers[w] = c
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if gate != nil {
					gate.RLock()
				}
				k, more := next()
				var err error
				if more {
					tm := traced != nil && traced.Load()
					ok0 := c.ok
					err = b.call(d, c, k%n, tm)
					if tm {
						c.modeReq[1] += c.ok - ok0
					} else {
						c.modeReq[0] += c.ok - ok0
					}
				}
				if gate != nil {
					gate.RUnlock()
				}
				if err != nil {
					errs[w] = err
				}
				if !more || err != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return callers, errors.Join(errs...)
}

// serveSetup is one fresh daemon set-up: start it and warm it with one
// request per document.
func (b *bench) serveSetup(acc *phase) func() (*daemon, error) {
	return func() (*daemon, error) {
		d, err := b.startDaemon()
		if err != nil {
			return nil, err
		}
		var next atomic.Int64
		warm, err := b.closedLoop(d, func() (int, bool) {
			k := int(next.Add(1) - 1)
			return k, k < len(b.in.docs)
		}, nil, nil)
		for _, c := range warm {
			acc.setupFailed += c.failed
		}
		return d, err
	}
}

// serveUnary: nproc closed-loop callers POST /v1/disambiguate with corpus
// documents to an in-process daemon. No budget is sent, so a healthy run
// never degrades.
func (b *bench) serveUnary() (*phase, error) {
	acc := &phase{}
	setup := b.serveSetup(acc)
	d, err := timedSetup(acc, setup)
	if d != nil {
		defer d.stop()
	}
	if err != nil {
		return acc, err
	}
	p := b.newProber(acc,
		func() error {
			extra, err := timedSetup(acc, setup)
			if extra != nil {
				if serr := extra.stop(); err == nil {
					err = serr
				}
			}
			return err
		},
		func() error { _, err := b.probeReload(true, acc); return err },
		latencyChunks, func(k int) error { return b.serveChunk(d, acc, k) })

	dur := time.Duration(b.cfg.seconds) * time.Second
	runtime.GC()
	s0 := d.fw.CacheStats()
	cpu0 := cpuTime()
	tot0, st0 := cpuTicks()
	start := time.Now()
	// measured is read by callers under the gate's read lock and p.excluded
	// is written by the prober under its write lock.
	measured := func() time.Duration { return time.Since(start) - p.excluded }
	gate := new(sync.RWMutex)
	var helpers sync.WaitGroup
	var traced *atomic.Bool
	var probeErr error
	if b.tr != nil {
		traced = new(atomic.Bool)
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			b.toggleModes(traced, start.Add(dur))
		}()
	} else {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			probeErr = b.probeLoop(p, gate, measured, dur)
		}()
	}
	var next atomic.Int64
	callers, err := b.closedLoop(d, func() (int, bool) {
		return int(next.Add(1) - 1), measured() < dur
	}, gate, traced)
	helpers.Wait()
	acc.wall = time.Since(start) - p.excluded
	acc.cpu = cpuTime() - cpu0 - p.excludedCPU
	tot1, st1 := cpuTicks()
	acc.steal = stealShare(tot0, st0, tot1, st1)
	for _, c := range callers {
		acc.attempted += c.ok + c.failed
		acc.ok += c.ok
		acc.failed += c.failed
		acc.wallLat = append(acc.wallLat, c.lat...)
		acc.servedTargets += c.targets
		b.layer.untraced.docs += c.modeReq[0]
		b.layer.traced.docs += c.modeReq[1]
	}
	acc.gold = servedGold(callers, b.in.gold)
	if err = errors.Join(err, probeErr); err != nil {
		return acc, err
	}
	if b.tr != nil {
		b.layer.addCache(d.fw.CacheStats(), s0)
	}
	d.tp.CloseIdleConnections()
	acc.heap = heapMiB()
	if err := p.topUp(); err != nil {
		return acc, err
	}
	if b.tr != nil {
		if err := b.replay(d.fw, true, true); err != nil {
			return acc, err
		}
	}
	return acc, nil
}

// probeLoop runs the due probes every probeTick while holding the gate's
// write lock, so no request is in flight while a probe is timed.
func (b *bench) probeLoop(p *prober, gate *sync.RWMutex, measured func() time.Duration, dur time.Duration) error {
	for {
		time.Sleep(probeTick)
		gate.Lock()
		m := measured()
		var err error
		if m < dur {
			err = p.due(m, dur)
		}
		gate.Unlock()
		if m >= dur || err != nil {
			return err
		}
	}
}

// probeTick is how often serve-unary checks for due probes.
const probeTick = 50 * time.Millisecond

// serveChunk sends the documents of latency chunk k one at a time over the
// daemon's keep-alive connection and records each request's time on the
// process CPU clock (client and server together) as a latency sample.
// Answers are checked like the measured phase's.
func (b *bench) serveChunk(d *daemon, acc *phase, k int) error {
	var res server.Result
	var buf bytes.Buffer
	var err error
	docs := chunkDocs(k, len(b.in.docs))
	timedChunks(len(docs), func(j int) {
		if err != nil {
			return
		}
		i := docs[j]
		req, rerr := http.NewRequest(http.MethodPost, d.url+"/v1/disambiguate", bytes.NewReader(b.in.bodies[i]))
		if rerr != nil {
			err = rerr
			return
		}
		req.Header.Set("Content-Type", "application/json")
		c0 := cpuTime()
		resp, rerr := d.client.Do(req)
		if rerr != nil {
			err = fmt.Errorf("latency chunk, document %d: %w", i, rerr)
			return
		}
		buf.Reset()
		_, rerr = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		lat := cpuTime() - c0
		if rerr != nil {
			err = fmt.Errorf("latency chunk, document %d: %w", i, rerr)
			return
		}
		if !b.checkServed(i, resp.StatusCode, buf.Bytes(), &res) {
			acc.chunkFailed++
			return
		}
		acc.lat = append(acc.lat, lat)
	})
	return err
}

// servedGold merges the callers' per-document gold counts: a document
// with any wrong answer counts its gold nodes as unassigned.
func servedGold(callers []*caller, gold [][]goldNode) goldCount {
	var g goldCount
	for i := range gold {
		var seen, failed bool
		var doc goldCount
		for _, c := range callers {
			failed = failed || c.docFailed[i]
			if c.docSeen[i] && !seen {
				seen, doc = true, c.docGold[i]
			}
		}
		switch {
		case failed:
			g.total += len(gold[i])
		case seen:
			g.correct += doc.correct
			g.assigned += doc.assigned
			g.total += doc.total
		}
	}
	return g
}

// toggleModes flips traced every modeWindow until the deadline and books
// each window's wall time and runtime counters to the mode it ran in.
func (b *bench) toggleModes(traced *atomic.Bool, deadline time.Time) {
	for {
		p0 := readProc()
		t0 := time.Now()
		left := time.Until(deadline)
		if left <= 0 {
			return
		}
		time.Sleep(min(modeWindow, left))
		mode := b.layer.mode(traced.Load())
		mode.add(time.Since(t0), 0, readProc().sub(p0))
		traced.Store(!traced.Load())
	}
}

// modeWindow is how long serve-unary stays in one tracing mode before
// switching: long against a request, short against host drift.
const modeWindow = 250 * time.Millisecond
