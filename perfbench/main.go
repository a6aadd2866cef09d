// Command perfbench is the repository benchmark. It generates its inputs
// from a seed, drives one workload through the public entry points of the
// xsdf package, the HTTP server and the layer packages, checks every
// output against a reference, and prints its metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same workload runs with spans recorded around the benchmark's calls into
// each layer, plus replays, and the metrics are the per-layer ones. The
// process exits non-zero when any output is wrong. --repeat N runs the
// workload N times as child processes with seeds seed..seed+N-1 and prints
// each metric's median, quartiles and spread.
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	xsdf "repro"
	"repro/internal/server"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	setups   int
	repeat   int
}

// corpusScale multiplies the Table 3 document counts: at 4, input bytes move
// ±0.6% between seeds (±3.5% at 1).
const corpusScale = 4

// phase is what one run measures: set-ups, the measured phase and the
// reloads, with every correctness outcome.
type phase struct {
	setups       []time.Duration // on the process CPU clock
	setupWalls   []time.Duration
	attempted    int
	ok           int
	failed       int
	setupFailed  int // mismatching warm-up outcomes
	reloadFailed int
	chunkFailed  int // mismatching latency-chunk outcomes
	gold         goldCount
	lat          []time.Duration // latency chunks, on the process CPU clock
	wallLat      []time.Duration // measured phase, wall clock
	wall         time.Duration
	cpu          time.Duration
	heap         float64
	reloads      []time.Duration
	refs         []time.Duration // host-speed reference kernel times
	// steal is the share of the guest's CPU time the hypervisor took during
	// the measured phase, recorded to explain wall-time outliers.
	steal float64
	// servedTargets counts the targets of every served answer.
	servedTargets int
}

func (p *phase) addSetup(cpu, wall time.Duration) {
	p.setups = append(p.setups, cpu)
	p.setupWalls = append(p.setupWalls, wall)
}

// unstolen is the measured phase's wall time minus the share the
// hypervisor stole from the guest's CPUs.
func (p *phase) unstolen() time.Duration {
	return time.Duration(float64(p.wall) * (1 - p.steal))
}

// modeAcc books the wall time, correct completions and runtime counters
// of the traced or the untraced steps of a traced run.
type modeAcc struct {
	wall  time.Duration
	docs  int
	procs procCounters
}

func (m *modeAcc) add(d time.Duration, docs int, p procCounters) {
	m.wall += d
	m.docs += docs
	m.procs = m.procs.add(p)
}

// layerAcc accumulates the per-layer counters of a traced run.
type layerAcc struct {
	traced, untraced modeAcc

	docs, nodes                                  int
	parse, guard, admission, preprocess, select_ time.Duration
	disamb, stageSum, batchWall                  time.Duration
	targets, assigned                            int

	vecHits, vecMisses, simHits, simMisses uint64

	overhead     time.Duration
	overheadDocs int
	replayFailed int

	ctxTime, cvTime, cosTime, simTime, compTime time.Duration
	ctxTargets, members, cvCalls, cosCalls      int
	simCalls                                    int

	reads, validates, canaries []time.Duration
	rollbacks                  uint64

	serverMu    sync.Mutex
	srvOverhead time.Duration
	srvReqs     int
	srvFailed   int // failed answers of the in-memory handler replay
	// docBytes holds each document's request and response body sizes
	// from its first traced answer; the byte metrics average over
	// documents, so they do not depend on which requests a window caught.
	docBytes       map[int][2]int
	srvStageMicros int64
}

// meanBytes averages request (k=0) or response (k=1) body sizes over the
// documents served.
func (l *layerAcc) meanBytes(k int) float64 {
	var sum int
	for _, b := range l.docBytes {
		sum += b[k]
	}
	return ratio(float64(sum), float64(len(l.docBytes)))
}

func (l *layerAcc) mode(traced bool) *modeAcc {
	if traced {
		return &l.traced
	}
	return &l.untraced
}

// addResult books one document's pipeline result.
func (l *layerAcc) addResult(r *xsdf.Result, parse time.Duration) {
	l.docs++
	l.nodes += r.Tree.Len()
	l.parse += parse
	l.targets += r.Targets
	l.assigned += r.Assigned
	for _, st := range r.Stages {
		l.stageSum += st.Duration
		switch st.Stage {
		case xsdf.StageGuard:
			l.guard += st.Duration
		case xsdf.StageAdmission:
			l.admission += st.Duration
		case xsdf.StagePreprocess:
			l.preprocess += st.Duration
		case xsdf.StageSelect:
			l.select_ += st.Duration
		case xsdf.StageDisambiguate:
			l.disamb += st.Duration
		}
	}
}

// addCache books the cache counter deltas of one snapshot's traced work.
func (l *layerAcc) addCache(now, before xsdf.CacheStats) {
	l.vecHits += now.VectorHits - before.VectorHits
	l.vecMisses += now.VectorMisses - before.VectorMisses
	l.simHits += now.SimHits - before.SimHits
	l.simMisses += now.SimMisses - before.SimMisses
}

// addServed books one served answer to document doc: caller latency, its
// wire stages and body sizes.
func (l *layerAcc) addServed(doc int, lat time.Duration, res *server.Result, req, resp int) {
	var micros int64
	for _, st := range res.Stages {
		micros += st.Micros
	}
	l.serverMu.Lock()
	defer l.serverMu.Unlock()
	l.srvReqs++
	l.srvOverhead += lat - time.Duration(micros)*time.Microsecond
	l.srvStageMicros += micros
	if l.docBytes == nil {
		l.docBytes = map[int][2]int{}
	}
	if _, ok := l.docBytes[doc]; !ok {
		l.docBytes[doc] = [2]int{req, resp}
	}
}

type bench struct {
	cfg     config
	dir     string
	workers int
	in      *inputs
	tr      *tracer
	layer   layerAcc
	trees   []*xsdf.Tree
	parse   []time.Duration
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*bench) (*phase, error){
	"reprocess-warm": (*bench).reprocessWarm,
	"reload-cold":    (*bench).reloadCold,
	"serve-unary":    (*bench).serveUnary,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "reprocess-warm | reload-cold | serve-unary")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.IntVar(&cfg.repeat, "repeat", 0, "run the workload this many times, one seed each, and print each metric's spread")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 || trace < 0 || trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload reprocess-warm|reload-cold|serve-unary, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	cfg.setups = defaultSetups[cfg.workload]
	if cfg.trace {
		// The traced run prints no setup_s; one set-up serves its phase.
		cfg.setups = 1
	}
	if cfg.repeat > 0 {
		os.Exit(repeat(cfg, trace))
	}
	os.Exit(run(cfg))
}

// defaultSetups is how many fresh set-ups a run takes the median of. The
// reload-cold set-up is the shortest, so it is repeated most.
var defaultSetups = map[string]int{"reprocess-warm": 7, "reload-cold": 15, "serve-unary": 7}

func buildDir() string {
	if d := os.Getenv("PERFBENCH_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func run(cfg config) int {
	b := &bench{cfg: cfg, workers: runtime.GOMAXPROCS(0)}
	b.dir = filepath.Join(buildDir(), fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.dir)

	host := readHost()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	in, err := makeInputs(cfg.seed, corpusScale, b.dir, b.workers, cfg.workload == "serve-unary")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: inputs:", err)
		return 1
	}
	b.in = in
	b.trees = make([]*xsdf.Tree, len(in.docs))
	b.parse = make([]time.Duration, len(in.docs))
	if cfg.trace {
		b.tr = newTracer()
	}

	ph, runErr := workloads[cfg.workload](b)
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
	}
	failed := ph.failed + ph.setupFailed + ph.reloadFailed + ph.chunkFailed + b.layer.replayFailed + b.layer.srvFailed
	res := result{
		Correct:   runErr == nil && failed == 0 && ph.attempted > 0,
		Attempted: max(ph.attempted, 1),
		Failed:    failed,
	}
	if runErr != nil && failed == 0 {
		res.Failed = 1
	}
	record := map[string]any{
		"host":  host,
		"input": map[string]any{"seed": cfg.seed, "scale": corpusScale, "docs": len(in.docs), "bytes": in.bytes, "lexicon": filepath.Base(in.lexPath)},
		"run": map[string]any{
			"workload": cfg.workload, "seconds": cfg.seconds, "trace": cfg.trace,
			"phase_s": ph.wall.Seconds(), "setups": len(ph.setups), "reloads": len(ph.reloads),
			"latency_samples": len(ph.lat), "workers": b.workers, "connections": connections(cfg, b.workers),
			"attempted": ph.attempted, "ok": ph.ok, "failed": ph.failed,
			"setup_failed": ph.setupFailed, "reload_failed": ph.reloadFailed, "chunk_failed": ph.chunkFailed,
			"replay_failed": b.layer.replayFailed, "server_failed": b.layer.srvFailed,
		},
	}
	record["wall_clock"] = wallClock(ph)
	if !cfg.trace {
		unscaled := map[string]float64{"ref_kernel_ms": ms(median(ph.refs)), "ref_samples": float64(len(ph.refs))}
		for name, v := range rawTimings(ph) {
			unscaled[name] = v.Value
		}
		record["unscaled"] = unscaled
	}
	if cfg.trace {
		res.Metrics = b.layerMetrics(ph)
	} else {
		res.Metrics = endToEnd(ph)
	}
	printRecord(record, res.Metrics)
	if b.tr != nil {
		path := filepath.Join(buildDir(), "trace", cfg.workload+".json")
		self := b.tr.selfTimes()
		for _, r := range self {
			fmt.Printf("self  %-40s spans=%-7d total_ms=%-12.3f self_ms=%.3f\n", r.Name, r.Spans, r.TotalMS, r.SelfMS)
		}
		if err := b.tr.write(path, record, self); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
		fmt.Println("trace written to", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// busy returns the pipeline time of the traced work and the worker-slot
// time it had: batch calls times workers for the library workloads, the
// traced windows times the server's concurrency for serve-unary.
func (b *bench) busy() (busy, slots time.Duration) {
	l := &b.layer
	if b.cfg.workload == "serve-unary" {
		return time.Duration(l.srvStageMicros) * time.Microsecond, l.traced.wall * time.Duration(b.workers)
	}
	return l.stageSum, l.batchWall
}

func connections(cfg config, workers int) int {
	if cfg.workload == "serve-unary" {
		return workers
	}
	return 0
}

// printRecord prints the host/input/run record and every metric by name
// and unit, ahead of the result line.
func printRecord(record map[string]any, m map[string]metric) {
	for _, k := range []string{"host", "input", "run", "wall_clock", "unscaled"} {
		if v, ok := record[k]; ok {
			b, _ := json.Marshal(v)
			fmt.Printf("%s: %s\n", k, b)
		}
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-36s %s %s\n", k, strconv.FormatFloat(m[k].Value, 'g', -1, 64), m[k].Unit)
	}
}

// endToEnd derives the end-to-end metrics of an untraced run. Every time
// is on a clock the hypervisor's steal does not advance (set-up, reload
// and latency on the process CPU clock, throughput over the unstolen part
// of the phase) and scaled to the reference host speed (calib.go); see
// README.md, "Clocks". rawTimings gives the same figures unscaled.
func endToEnd(ph *phase) map[string]metric {
	m := rawTimings(ph)
	k := hostScale(ph.refs)
	for name, v := range m {
		if name == "docs_per_s" {
			v.Value /= k
		} else {
			v.Value *= k
		}
		m[name] = v
	}
	docs := float64(ph.attempted)
	m["heap_mb"] = metric{ph.heap, "MiB"}
	m["ok_share"] = metric{ratio(float64(ph.ok), docs), "share"}
	m["f_gold"] = metric{ph.gold.f(), "F"}
	return m
}

// rawTimings is the timing metrics of an untraced run on the steal-free
// clocks, before host-speed scaling.
func rawTimings(ph *phase) map[string]metric {
	lat := append([]time.Duration(nil), ph.lat...)
	sortDurations(lat)
	return map[string]metric{
		"setup_s":        {median(ph.setups).Seconds(), "s"},
		"docs_per_s":     {ratio(float64(ph.ok), ph.unstolen().Seconds()), "docs/s"},
		"cpu_ms_per_doc": {ratio(ms(ph.cpu), float64(ph.attempted)), "ms"},
		"reload_ms":      {ms(median(ph.reloads)), "ms"},
		"latency_p50_ms": {ms(quantile(lat, 0.50)), "ms"},
		"latency_p99_ms": {ms(quantile(lat, 0.99)), "ms"},
	}
}

// wallClock reports the same quantities on the wall clock, with the steal
// share that explains how far they drift from the steal-free figures.
func wallClock(ph *phase) map[string]any {
	lat := append([]time.Duration(nil), ph.wallLat...)
	sortDurations(lat)
	return map[string]any{
		"steal_share":     ph.steal,
		"setup_s":         median(ph.setupWalls).Seconds(),
		"docs_per_s":      ratio(float64(ph.ok), ph.wall.Seconds()),
		"latency_p50_ms":  ms(quantile(lat, 0.50)),
		"latency_p99_ms":  ms(quantile(lat, 0.99)),
		"latency_samples": len(lat),
	}
}

// layerMetrics derives the per-layer metrics of a traced run.
func (b *bench) layerMetrics(ph *phase) map[string]metric {
	l := &b.layer
	docs := float64(l.docs)
	targets := float64(l.targets)
	vec := float64(l.vecHits + l.vecMisses)
	sims := float64(l.simHits + l.simMisses)
	untracedRate := ratio(float64(l.untraced.docs), l.untraced.wall.Seconds())
	tracedRate := ratio(float64(l.traced.docs), l.traced.wall.Seconds())
	up := l.untraced.procs
	udocs := float64(l.untraced.docs)
	// Serving counts its targets from the wire (the replay's documents are
	// not the measured requests); the library workloads from their passes.
	pipeTargets := targets
	if b.cfg.workload == "serve-unary" {
		pipeTargets = float64(ph.servedTargets)
	}
	busy, slots := b.busy()
	// The server's failed answers: the measured requests on serve-unary,
	// the in-memory handler replay on the library workloads.
	failedReqs := l.srvFailed
	if b.cfg.workload == "serve-unary" {
		failedReqs += ph.failed
	}
	return map[string]metric{
		"xmltree.parse_us_per_doc":            {ratio(us(l.parse), docs), "us"},
		"xmltree.nodes_per_doc":               {ratio(float64(l.nodes), docs), "count"},
		"core.guard_us_per_doc":               {ratio(us(l.guard), docs), "us"},
		"core.admission_us_per_doc":           {ratio(us(l.admission), docs), "us"},
		"core.overhead_us_per_doc":            {ratio(us(l.overhead), float64(l.overheadDocs)), "us"},
		"core.batch_idle_share":               {1 - ratio(float64(busy), float64(slots)), "share"},
		"core.canary_ms":                      {ms(median(l.canaries)), "ms"},
		"core.reload_rollbacks":               {float64(l.rollbacks), "count"},
		"lingproc.preprocess_us_per_doc":      {ratio(us(l.preprocess), docs), "us"},
		"ambiguity.select_us_per_doc":         {ratio(us(l.select_), docs), "us"},
		"ambiguity.targets_per_doc":           {ratio(targets, docs), "count"},
		"disambig.us_per_target":              {ratio(us(l.disamb), targets), "us"},
		"disambig.assigned_share":             {ratio(float64(l.assigned), targets), "share"},
		"disambig.vec_lookups_per_target":     {ratio(vec, pipeTargets), "count"},
		"disambig.vec_hit_share":              {ratio(float64(l.vecHits), vec), "share"},
		"disambig.concept_vector_us_per_call": {ratio(us(l.cvTime), float64(l.cvCalls)), "us"},
		"sphere.context_us_per_target":        {ratio(us(l.ctxTime), float64(l.ctxTargets)), "us"},
		"sphere.members_per_target":           {ratio(float64(l.members), float64(l.ctxTargets)), "count"},
		"sphere.cosine_ns_per_call":           {ratio(float64(l.cosTime), float64(l.cosCalls)), "ns"},
		"simmeasure.sims_per_target":          {ratio(sims, pipeTargets), "count"},
		"simmeasure.sim_hit_share":            {ratio(float64(l.simHits), sims), "share"},
		"simmeasure.sim_ns_per_call":          {ratio(float64(l.simTime), float64(l.simCalls)), "ns"},
		"simmeasure.compute_ns_per_call":      {ratio(float64(l.compTime), float64(l.simCalls)), "ns"},
		"semnet.read_ms":                      {ms(median(l.reads)), "ms"},
		"semnet.validate_ms":                  {ms(median(l.validates)), "ms"},
		"server.overhead_us_per_req":          {ratio(us(l.srvOverhead), float64(l.srvReqs)), "us"},
		"server.req_bytes":                    {l.meanBytes(0), "bytes"},
		"server.resp_bytes":                   {l.meanBytes(1), "bytes"},
		"server.failed_reqs":                  {float64(failedReqs), "count"},
		"process.allocs_per_doc":              {ratio(float64(up.allocObjects), udocs), "count"},
		"process.alloc_kb_per_doc":            {ratio(float64(up.allocBytes)/1024, udocs), "KiB"},
		"process.gc_cpu_share":                {ratio(up.gcCPU, up.totalCPU), "share"},
		"trace_overhead_share":                {1 - ratio(tracedRate, untracedRate), "share"},
	}
}
