package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	xsdf "repro"
)

// newFramework is one fresh framework set-up: read the lexicon codec file
// and build the pipeline over it.
func (b *bench) newFramework(serve bool) (*xsdf.Framework, error) {
	id := b.tr.open("semnet.ReadFile", 0, -1)
	net, _, err := xsdf.ReadNetworkFile(b.in.lexPath)
	b.tr.close(id, 1)
	if err != nil {
		return nil, fmt.Errorf("reading lexicon: %w", err)
	}
	id = b.tr.open("xsdf.New", 0, -1)
	defer b.tr.close(id, 1)
	return xsdf.New(benchOptions(net, serve))
}

// timedSetup runs one fresh set-up from a collected heap and books its
// time on the process CPU clock (and, for the record, the wall clock).
func timedSetup[T any](acc *phase, setup func() (T, error)) (T, error) {
	runtime.GC()
	c0, t0 := cpuTime(), time.Now()
	v, err := setup()
	acc.addSetup(cpuTime()-c0, time.Since(t0))
	return v, err
}

// pass is one reprocessing pass over the corpus: parse every document with
// ParseTree, then disambiguate the batch on b.workers workers. Each result
// is checked against the reference digest and scored against gold.
// traced passes record spans and the per-layer counters.
func (b *bench) pass(fw *xsdf.Framework, traced bool, acc *phase) error {
	tr := b.tr
	if !traced {
		tr = nil
	}
	trees := b.trees
	passID := tr.open("pass", 0, -1)
	for i, doc := range b.in.docs {
		id := tr.open("xmltree.ParseTree", passID, i)
		t0 := time.Now()
		t, err := fw.ParseTree(strings.NewReader(doc))
		b.parse[i] = time.Since(t0)
		tr.close(id, 1)
		if err != nil {
			return fmt.Errorf("parsing document %d: %w", i, err)
		}
		trees[i] = t
	}
	var s0 xsdf.CacheStats
	if traced {
		s0 = fw.CacheStats()
	}
	batchID := tr.open("xsdf.DisambiguateBatchContext", passID, -1)
	t0 := time.Now()
	results, _ := fw.DisambiguateBatchContext(context.Background(), trees, xsdf.BatchOptions{Workers: b.workers})
	batch := time.Since(t0)
	tr.close(batchID, b.workers)
	tr.close(passID, 1)
	if traced {
		b.layer.addCache(fw.CacheStats(), s0)
		b.layer.batchWall += batch * time.Duration(b.workers)
	}
	for i, r := range results {
		trees[i] = nil
		acc.attempted++
		// A failed document (nil result) or any drift from the reference
		// senses and score bits is a failed operation.
		if r == nil || r.Degraded != xsdf.DegradeNone || digest(r.Tree) != b.in.ref[i].digest {
			acc.failed++
			acc.gold.total += len(b.in.gold[i])
			continue
		}
		acc.ok++
		acc.gold.addTree(r.Tree, b.in.gold[i])
		lat := b.parse[i]
		for _, st := range r.Stages {
			lat += st.Duration
		}
		acc.wallLat = append(acc.wallLat, lat)
		if traced {
			tr.stages(batchID, i, r.Stages)
			b.layer.addResult(r, b.parse[i])
		}
	}
	return nil
}

// phaseLoop runs step until the measured time is used up, with the due
// probes between steps (untraced runs only); probe time is not measured
// time. In a traced run the steps alternate between untraced and traced,
// so both modes see the same host conditions and trace_overhead_share
// compares like with like.
func (b *bench) phaseLoop(acc *phase, p *prober, step func(traced bool) error) error {
	dur := time.Duration(b.cfg.seconds) * time.Second
	runtime.GC()
	cpu0 := cpuTime()
	tot0, st0 := cpuTicks()
	start := time.Now()
	measured := func() time.Duration { return time.Since(start) - p.excluded }
	for k := 0; measured() < dur; k++ {
		traced := b.tr != nil && k%2 == 1
		p0 := readProc()
		t0 := time.Now()
		ok0 := acc.ok
		err := step(traced)
		b.layer.mode(traced).add(time.Since(t0), acc.ok-ok0, readProc().sub(p0))
		if err != nil {
			return err
		}
		if b.tr == nil {
			if err := p.due(measured(), dur); err != nil {
				return err
			}
		}
	}
	acc.wall = time.Since(start) - p.excluded
	acc.cpu = cpuTime() - cpu0 - p.excludedCPU
	tot1, st1 := cpuTicks()
	acc.steal = stealShare(tot0, st0, tot1, st1)
	return nil
}

// chunk times the documents of latency chunk k serially through the unary
// library path (ParseTree, then DisambiguateTreeContext), each on the
// process CPU clock, and checks each output against the reference.
func (b *bench) chunk(fw *xsdf.Framework, acc *phase, k int) {
	docs := chunkDocs(k, len(b.in.docs))
	timedChunks(len(docs), func(j int) {
		i := docs[j]
		c0 := cpuTime()
		t, err := fw.ParseTree(strings.NewReader(b.in.docs[i]))
		var res *xsdf.Result
		if err == nil {
			res, err = fw.DisambiguateTreeContext(context.Background(), t)
		}
		d := cpuTime() - c0
		if err != nil || res.Degraded != xsdf.DegradeNone || digest(res.Tree) != b.in.ref[i].digest {
			acc.chunkFailed++
			return
		}
		acc.lat = append(acc.lat, d)
	})
}

// reprocessWarm: a library caller reprocesses the corpus through one
// long-lived Framework whose caches answer almost every lookup.
func (b *bench) reprocessWarm() (*phase, error) {
	acc := &phase{}
	warmSetup := func() (*xsdf.Framework, error) {
		fw, err := b.newFramework(false)
		if err != nil {
			return nil, err
		}
		warm := &phase{}
		err = b.pass(fw, false, warm)
		acc.setupFailed += warm.failed
		return fw, err
	}
	fw, err := timedSetup(acc, warmSetup)
	if err != nil {
		return acc, err
	}
	p := b.newProber(acc,
		func() error { _, err := timedSetup(acc, warmSetup); return err },
		func() error { _, err := b.probeReload(false, acc); return err },
		latencyChunks, func(k int) error { b.chunk(fw, acc, k); return nil })
	if err := b.phaseLoop(acc, p, func(traced bool) error { return b.pass(fw, traced, acc) }); err != nil {
		return acc, err
	}
	acc.heap = heapMiB()
	if err := p.topUp(); err != nil {
		return acc, err
	}
	if b.tr != nil {
		if err := b.replay(fw, true, false); err != nil {
			return acc, err
		}
	}
	return acc, nil
}

// reloadCold: each cycle hot-swaps the lexicon with Framework.Reload and
// then runs one pass on the fresh snapshot, whose caches, concept index,
// LCS memo and pre-processing memo all start empty. Its latency chunks run
// on a probe framework reloaded just before each chunk, so they too see a
// fresh snapshot; those reloads are its reload_ms samples.
func (b *bench) reloadCold() (*phase, error) {
	acc := &phase{}
	coldSetup := func() (*xsdf.Framework, error) { return b.newFramework(false) }
	fw, err := timedSetup(acc, coldSetup)
	if err != nil {
		return acc, err
	}
	var probeFw *xsdf.Framework
	p := b.newProber(acc,
		func() error { _, err := timedSetup(acc, coldSetup); return err },
		func() error { _, err := b.probeReload(false, acc); return err },
		2*latencyChunks, func(k int) error {
			if k%(len(b.in.docs)/sweepChunk) == 0 || probeFw == nil {
				var err error
				if probeFw, err = b.probeReload(false, acc); err != nil {
					return err
				}
			}
			b.chunk(probeFw, acc, k)
			return nil
		})
	epoch := fw.LexiconInfo().Epoch
	rollbacks := fw.LexiconStats().Rollbacks
	err = b.phaseLoop(acc, p, func(traced bool) error {
		got, _, err := b.reload(fw)
		if err != nil || got != epoch+1 || fw.LexiconStats().Rollbacks != rollbacks {
			acc.reloadFailed++
			return fmt.Errorf("reload to epoch %d: got epoch %d, err %v", epoch+1, got, err)
		}
		epoch = got
		return b.pass(fw, traced, acc)
	})
	if err != nil {
		return acc, err
	}
	probeFw = nil // apparatus, not the workload's retained state
	acc.heap = heapMiB()
	if err := p.topUp(); err != nil {
		return acc, err
	}
	if b.tr != nil {
		b.layer.rollbacks += fw.LexiconStats().Rollbacks - rollbacks
		if err := b.replay(fw, false, false); err != nil {
			return acc, err
		}
	}
	return acc, nil
}

// reload hot-swaps fw to the lexicon file and returns the new epoch and
// the reload's time on the process CPU clock.
func (b *bench) reload(fw *xsdf.Framework) (uint64, time.Duration, error) {
	id := b.tr.open("xsdf.Reload", 0, -1)
	c0 := cpuTime()
	info, err := fw.Reload(context.Background(), b.in.lexPath, xsdf.ReloadOptions{})
	d := cpuTime() - c0
	b.tr.close(id, 1)
	return info.Epoch, d, err
}

// readValidate replays the load and validate stages of a reload on the
// lexicon file: semnet.ReadFile, then Network.Validate, each on the process
// CPU clock.
func (b *bench) readValidate() (read, validate time.Duration, err error) {
	id := b.tr.open("replay.semnet.ReadFile", 0, -1)
	c0 := cpuTime()
	net, _, err := xsdf.ReadNetworkFile(b.in.lexPath)
	read = cpuTime() - c0
	b.tr.close(id, 1)
	if err != nil {
		return read, 0, err
	}
	id = b.tr.open("replay.semnet.Validate", 0, -1)
	c0 = cpuTime()
	err = net.Validate()
	validate = cpuTime() - c0
	b.tr.close(id, 1)
	return read, validate, err
}

// probeReload builds a probe framework, reloads it quiesced (one P,
// collector paused, see timedChunks) and books the time as a reload_ms
// sample. The probe framework serves no traffic, so the measured workload
// keeps its own snapshot, and it is dropped after the probe, so it is not
// in heap_mb. The reload must succeed, advance the epoch by one and leave
// the rollback counter alone. In a traced run each probe also replays the
// load and validate stages right after the reload, so core.canary_ms is the
// reload minus its own load and validate, measured at the same moment.
func (b *bench) probeReload(serve bool, acc *phase) (*xsdf.Framework, error) {
	fw, err := b.newFramework(serve)
	if err != nil {
		return nil, err
	}
	epoch := fw.LexiconInfo().Epoch
	rollbacks := fw.LexiconStats().Rollbacks
	var got uint64
	var d, read, validate time.Duration
	timedChunks(1, func(int) {
		got, d, err = b.reload(fw)
		if err == nil && b.tr != nil {
			read, validate, err = b.readValidate()
		}
	})
	acc.reloads = append(acc.reloads, d)
	if b.tr != nil {
		l := &b.layer
		l.reads = append(l.reads, read)
		l.validates = append(l.validates, validate)
		l.canaries = append(l.canaries, d-read-validate)
		l.rollbacks += fw.LexiconStats().Rollbacks - rollbacks
	}
	if err != nil || got != epoch+1 || fw.LexiconStats().Rollbacks != rollbacks {
		acc.reloadFailed++
		return nil, fmt.Errorf("probe reload to epoch %d: got epoch %d, err %v", epoch+1, got, err)
	}
	return fw, nil
}
