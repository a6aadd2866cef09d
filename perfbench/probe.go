package main

import "time"

// The probes are the run's short timed operations: fresh set-ups (setup_s),
// quiesced reloads (reload_ms), serial latency chunks (latency_p50_ms,
// latency_p99_ms) and host-speed reference chunks (see calib.go). The host's speed drifts over seconds, so a burst of
// probes at one moment measures that moment; instead the probes are spread
// evenly over the measured phase, between its steps, and their wall and
// CPU time are excluded from the phase's throughput and CPU figures. What a
// short phase leaves undone is topped up after it.

// Probe counts per run.
const (
	// reloadProbes is how many reloads reload_ms takes the median of.
	reloadProbes = 30
	// latencyChunks chunks of sweepChunk documents give the latency
	// percentiles: at 20 documents a chunk, 2400 samples (ten passes over
	// the corpus), 24 beyond p99. reload-cold takes twice as many: its
	// tail is the few documents that fill a fresh snapshot's caches in
	// each pass, so it needs more passes to hold still.
	latencyChunks = 120
)

// probe is one kind of probe: want runs in all, done so far.
type probe struct {
	want, done int
	run        func(k int) error
}

// prober schedules the probes of one run.
type prober struct {
	probes      []*probe
	excluded    time.Duration // wall time spent in probes
	excludedCPU time.Duration
}

// newProber builds a run's probe schedule: fresh set-ups (the first already
// ran and serves the phase), reloads, and in untraced runs latency chunks
// and host-speed reference chunks. The traced run prints no setup_s,
// latency or host-speed-scaled figure; its reload probes feed canary_ms.
func (b *bench) newProber(acc *phase, setup, reload func() error, chunks int, chunk func(k int) error) *prober {
	p := &prober{probes: []*probe{
		{want: b.cfg.setups, done: 1, run: func(int) error { return setup() }},
		{want: reloadProbes, run: func(int) error { return reload() }},
	}}
	if b.tr == nil {
		p.probes = append(p.probes,
			&probe{want: chunks, run: chunk},
			&probe{want: refChunks, run: func(int) error { refChunk(acc); return nil }})
	}
	return p
}

// due runs every probe whose evenly spaced slot within a phase of length
// dur the phase's measured time so far has reached.
func (p *prober) due(measured, dur time.Duration) error {
	w0, c0 := time.Now(), cpuTime()
	defer func() {
		p.excluded += time.Since(w0)
		p.excludedCPU += cpuTime() - c0
	}()
	for _, pr := range p.probes {
		if pr.done < pr.want && measured >= time.Duration(pr.done)*dur/time.Duration(pr.want) {
			pr.done++
			if err := pr.run(pr.done - 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// topUp runs the probes a short phase left undone.
func (p *prober) topUp() error {
	for _, pr := range p.probes {
		for pr.done < pr.want {
			pr.done++
			if err := pr.run(pr.done - 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// chunkDocs returns the documents of latency chunk k: consecutive runs of
// sweepChunk documents, cycling through the corpus.
func chunkDocs(k, n int) []int {
	out := make([]int, sweepChunk)
	for j := range out {
		out[j] = (k*sweepChunk + j) % n
	}
	return out
}
