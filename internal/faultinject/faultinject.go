// Package faultinject is the deterministic fault-injection seam of the
// XSDF pipeline. It has two layers:
//
//   - Hooks, the hand-written seam promoted from the original
//     core.SetTestHooks: tests install callbacks that run at tree start
//     and before each target node (a panicking hook models a poisoned
//     document, a sleeping hook a slow node).
//   - Injector, a seeded schedule of randomized faults fired at named
//     pipeline points (semnet lookup latency/error, cached-similarity
//     poison, per-node panic/delay, clock skew on degradation deadlines).
//     Given the same Config, the multiset of decisions drawn at each
//     point is identical across runs, so a chaos failure reproduces from
//     its seed.
//
// Production code never installs either layer; every site tolerates the
// nil zero value with a single atomic load on the fast path.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xmltree"
)

// Hooks is the callback seam of the pipeline (formerly core.TestHooks).
// All call sites tolerate the zero value.
type Hooks struct {
	// BeforeTree runs at the start of document processing, after the
	// resource guards, with the tree about to be processed.
	BeforeTree func(*xmltree.Tree)
	// BeforeNode runs before each target node is disambiguated.
	BeforeNode func(*xmltree.Node)
}

var (
	hooksMu sync.Mutex
	hooks   Hooks
)

// SetHooks installs h and returns a function restoring the previous
// hooks; tests should defer it. Safe for concurrent use with running
// pipelines (workers snapshot the hooks at tree start).
func SetHooks(h Hooks) (restore func()) {
	hooksMu.Lock()
	prev := hooks
	hooks = h
	hooksMu.Unlock()
	return func() {
		hooksMu.Lock()
		hooks = prev
		hooksMu.Unlock()
	}
}

// CurrentHooks snapshots the installed hooks.
func CurrentHooks() Hooks {
	hooksMu.Lock()
	defer hooksMu.Unlock()
	return hooks
}

// Point names an injection site in the pipeline. Each point keeps its own
// deterministic draw sequence, so enabling one fault class does not shift
// the decisions of another.
type Point uint8

const (
	// PointTree fires at the start of document processing.
	PointTree Point = iota
	// PointNode fires before each target node is disambiguated.
	PointNode
	// PointLookup fires at each sense lookup during scoring; a hit makes
	// the lookup behave like a failed semantic-network backend (no senses).
	PointLookup
	// PointCache fires at each cached per-word similarity read; a hit
	// returns a poisoned (out-of-range) score.
	PointCache
	// PointClock fires at each budget-tracker clock read; a hit skews the
	// observed time forward, aging deadlines prematurely.
	PointClock
	// PointServer fires once per HTTP request on the serving path, before
	// the pipeline runs; a hit fails the request (an internal server
	// fault) or delays it (a slow dependency ahead of the pipeline).
	PointServer
	// PointStage fires before each pipeline stage runs (the uniform
	// middleware seam of internal/pipeline); a hit panics — modeling a
	// poisoned stage boundary, boxed by the stage middleware into a
	// *PanicError — or delays the stage.
	PointStage
	// PointStream fires before each NDJSON result line the streaming
	// endpoint emits; a hit cuts the connection mid-stream (the client must
	// resume from its cursor) or stalls the write (a slow wire).
	PointStream
	// PointSubtree fires before each subtree an incremental scan pulls in
	// subtree streaming mode; a hit cuts the connection mid-document (the
	// client resumes from a mid-document cursor) or stalls the scan (a
	// slow upstream source).
	PointSubtree
	// PointReload fires at each stage of a staged lexicon reload (load,
	// validate, canary); a hit fails that stage — the reload pipeline
	// must roll back to the serving snapshot — or stalls the load (a slow
	// disk or oversized lexicon holding the reload, never the data path).
	PointReload

	numPoints
)

// String names the point.
func (p Point) String() string {
	switch p {
	case PointTree:
		return "tree"
	case PointNode:
		return "node"
	case PointLookup:
		return "semnet-lookup"
	case PointCache:
		return "cache-sim"
	case PointClock:
		return "clock"
	case PointServer:
		return "server"
	case PointStage:
		return "stage"
	case PointStream:
		return "stream"
	case PointSubtree:
		return "subtree"
	case PointReload:
		return "reload"
	default:
		return fmt.Sprintf("Point(%d)", uint8(p))
	}
}

// Config is a seeded fault schedule: per-point firing rates (in [0, 1])
// and fault magnitudes. The zero value injects nothing.
type Config struct {
	// Seed determines every draw; equal seeds give equal schedules.
	Seed int64

	// TreePanicRate panics at PointTree (a poisoned document).
	TreePanicRate float64
	// NodePanicRate panics at PointNode (a poisoned node).
	NodePanicRate float64
	// NodeDelayRate sleeps NodeDelay at PointNode (a slow node).
	NodeDelayRate float64
	NodeDelay     time.Duration
	// LookupErrRate makes a sense lookup return nothing (a failed
	// semantic-network backend); LookupDelayRate/LookupDelay model a slow
	// backend.
	LookupErrRate   float64
	LookupDelayRate float64
	LookupDelay     time.Duration
	// CachePoisonRate corrupts a cached-similarity read with PoisonValue
	// (default -1, outside the valid [0, 1] score range).
	CachePoisonRate float64
	PoisonValue     float64
	// ClockSkewRate skews a budget clock read forward by a deterministic
	// amount up to ClockSkewMax.
	ClockSkewRate float64
	ClockSkewMax  time.Duration
	// ServerErrRate fails an HTTP request at PointServer before the
	// pipeline runs (an injected internal server fault, surfaced as a
	// 500); ServerDelayRate/ServerDelay model a slow dependency ahead of
	// the pipeline, burning request budget without doing work.
	ServerErrRate   float64
	ServerDelayRate float64
	ServerDelay     time.Duration
	// StagePanicRate panics at PointStage, before a pipeline stage runs
	// (the stage middleware boxes it into a *PanicError);
	// StageDelayRate/StageDelay model a slow stage boundary.
	StagePanicRate float64
	StageDelayRate float64
	StageDelay     time.Duration
	// StreamCutRate cuts the connection at PointStream instead of emitting
	// the next NDJSON line (a mid-stream disconnect the client must resume
	// across); StreamStallRate/StreamStall stall the line write (a slow
	// wire between the emitter and the client).
	StreamCutRate   float64
	StreamStallRate float64
	StreamStall     time.Duration
	// SubtreeCutRate cuts the connection at PointSubtree, between two
	// subtrees of one incrementally scanned document (a mid-document
	// disconnect the client must resume across);
	// SubtreeStallRate/SubtreeStall stall the scan (a slow upstream
	// source feeding the incremental parser).
	SubtreeCutRate   float64
	SubtreeStallRate float64
	SubtreeStall     time.Duration
	// ReloadLoadErrRate / ReloadValidateErrRate / ReloadCanaryErrRate fail
	// the matching stage of a staged lexicon reload at PointReload (the
	// reload rolls back; serving traffic must never notice);
	// ReloadSlowRate/ReloadSlow stall the load stage, modeling a slow disk
	// or an OEWN-sized lexicon parse holding the swap back.
	ReloadLoadErrRate     float64
	ReloadValidateErrRate float64
	ReloadCanaryErrRate   float64
	ReloadSlowRate        float64
	ReloadSlow            time.Duration
}

// Injector fires the faults of one Config. Each point draws from its own
// counter-indexed hash sequence: the n-th draw at a point is a pure
// function of (seed, point, n), so the decision multiset is reproducible
// even when concurrent goroutines race for draw slots.
type Injector struct {
	cfg   Config
	draws [numPoints]atomic.Uint64
}

// New returns an Injector over cfg.
func New(cfg Config) *Injector {
	if cfg.PoisonValue == 0 {
		cfg.PoisonValue = -1
	}
	return &Injector{cfg: cfg}
}

// Config returns the injector's schedule.
func (inj *Injector) Config() Config { return inj.cfg }

var active atomic.Pointer[Injector]

// Install makes inj the process-wide injector and returns a restore
// function; tests should defer it. Installing nil disables injection.
func Install(inj *Injector) (restore func()) {
	prev := active.Swap(inj)
	return func() { active.Store(prev) }
}

// Enabled reports whether an injector is installed.
func Enabled() bool { return active.Load() != nil }

// splitmix64 is the SplitMix64 finalizer: a high-quality 64-bit mix used
// to turn (seed, point, counter) into an independent uniform draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw takes the next slot at p and returns a uniform value in [0, 1)
// plus the raw hash for magnitude derivation.
func (inj *Injector) draw(p Point) (float64, uint64) {
	n := inj.draws[p].Add(1) - 1
	h := splitmix64(uint64(inj.cfg.Seed)*0x9e3779b97f4a7c15 + uint64(p)<<56 + n)
	return float64(h>>11) / (1 << 53), h
}

// InjectedPanic is the value thrown by schedule-driven panics, so chaos
// tests can tell injected panics from genuine pipeline bugs.
type InjectedPanic struct {
	Point Point
	Draw  uint64
	// Stage names the pipeline stage for PointStage hits, empty otherwise.
	Stage string
}

func (p InjectedPanic) String() string {
	if p.Stage != "" {
		return fmt.Sprintf("faultinject: injected panic at %s %q (draw %d)", p.Point, p.Stage, p.Draw)
	}
	return fmt.Sprintf("faultinject: injected panic at %s (draw %d)", p.Point, p.Draw)
}

// TreeStart fires PointTree: it may panic per the installed schedule.
func TreeStart() {
	inj := active.Load()
	if inj == nil {
		return
	}
	if u, h := inj.draw(PointTree); u < inj.cfg.TreePanicRate {
		panic(InjectedPanic{Point: PointTree, Draw: h})
	}
}

// NodeStart fires PointNode: it may sleep or panic per the schedule.
func NodeStart() {
	inj := active.Load()
	if inj == nil {
		return
	}
	u, h := inj.draw(PointNode)
	if u < inj.cfg.NodePanicRate {
		panic(InjectedPanic{Point: PointNode, Draw: h})
	}
	if u < inj.cfg.NodePanicRate+inj.cfg.NodeDelayRate && inj.cfg.NodeDelay > 0 {
		time.Sleep(inj.cfg.NodeDelay)
	}
}

// DropLookup fires PointLookup and reports whether the sense lookup
// should behave as failed; it may also sleep (slow backend).
func DropLookup() bool {
	inj := active.Load()
	if inj == nil {
		return false
	}
	u, _ := inj.draw(PointLookup)
	if u < inj.cfg.LookupErrRate {
		return true
	}
	if u < inj.cfg.LookupErrRate+inj.cfg.LookupDelayRate && inj.cfg.LookupDelay > 0 {
		time.Sleep(inj.cfg.LookupDelay)
	}
	return false
}

// PoisonSim fires PointCache: when the fault hits it returns a corrupted
// similarity value and true, and the caller must use it in place of the
// cached score.
func PoisonSim() (float64, bool) {
	inj := active.Load()
	if inj == nil {
		return 0, false
	}
	if u, _ := inj.draw(PointCache); u < inj.cfg.CachePoisonRate {
		return inj.cfg.PoisonValue, true
	}
	return 0, false
}

// ErrInjectedServerFault is what ServerFault returns on a hit, so the
// serving layer (and its tests) can tell injected request failures from
// genuine handler bugs.
var ErrInjectedServerFault = fmt.Errorf("faultinject: injected server fault")

// ServerFault fires PointServer once per request on the serving path. It
// may sleep (slow upstream dependency) and may return
// ErrInjectedServerFault, which the server surfaces as a 500.
func ServerFault() error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	u, _ := inj.draw(PointServer)
	if u < inj.cfg.ServerErrRate {
		return ErrInjectedServerFault
	}
	if u < inj.cfg.ServerErrRate+inj.cfg.ServerDelayRate && inj.cfg.ServerDelay > 0 {
		time.Sleep(inj.cfg.ServerDelay)
	}
	return nil
}

// StageStart fires PointStage before the named pipeline stage runs: it
// may panic or sleep per the installed schedule. The stage middleware
// (internal/pipeline) is its only caller, so a schedule with a non-zero
// StagePanicRate exercises every stage boundary uniformly.
func StageStart(stage string) {
	inj := active.Load()
	if inj == nil {
		return
	}
	u, h := inj.draw(PointStage)
	if u < inj.cfg.StagePanicRate {
		panic(InjectedPanic{Point: PointStage, Draw: h, Stage: stage})
	}
	if u < inj.cfg.StagePanicRate+inj.cfg.StageDelayRate && inj.cfg.StageDelay > 0 {
		time.Sleep(inj.cfg.StageDelay)
	}
}

// StreamEmit fires PointStream before one NDJSON result line is written.
// It may sleep (a stalled wire) and reports cut=true when the schedule
// wants the connection severed instead of the line delivered — the
// streaming handler aborts the connection without writing, so the client
// sees a mid-stream disconnect and must resume from its last cursor.
func StreamEmit() (cut bool) {
	inj := active.Load()
	if inj == nil {
		return false
	}
	u, _ := inj.draw(PointStream)
	if u < inj.cfg.StreamCutRate {
		return true
	}
	if u < inj.cfg.StreamCutRate+inj.cfg.StreamStallRate && inj.cfg.StreamStall > 0 {
		time.Sleep(inj.cfg.StreamStall)
	}
	return false
}

// SubtreeNext fires PointSubtree before an incremental scan pulls its
// next subtree in subtree streaming mode. It may sleep (a slow upstream
// source) and reports cut=true when the schedule wants the connection
// severed mid-document — the streaming handler aborts without emitting
// the subtree, and the client resumes from its last cursor, landing in
// the middle of the document's subtree sequence.
func SubtreeNext() (cut bool) {
	inj := active.Load()
	if inj == nil {
		return false
	}
	u, _ := inj.draw(PointSubtree)
	if u < inj.cfg.SubtreeCutRate {
		return true
	}
	if u < inj.cfg.SubtreeCutRate+inj.cfg.SubtreeStallRate && inj.cfg.SubtreeStall > 0 {
		time.Sleep(inj.cfg.SubtreeStall)
	}
	return false
}

// ErrInjectedReloadFault is what ReloadStage returns on a hit, so the
// reload pipeline (and its chaos tests) can tell injected reload
// failures from genuine candidate-lexicon problems.
var ErrInjectedReloadFault = fmt.Errorf("faultinject: injected reload fault")

// ReloadStage fires PointReload once per stage of a staged lexicon
// reload ("load", "validate", "canary"). A hit at the named stage
// returns an error wrapping ErrInjectedReloadFault — the reload must
// abort the stage and roll back — and the load stage may additionally
// stall (slow disk), exercising the requirement that a long reload never
// blocks serving traffic.
func ReloadStage(stage string) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	u, _ := inj.draw(PointReload)
	var rate float64
	switch stage {
	case "load":
		rate = inj.cfg.ReloadLoadErrRate
	case "validate":
		rate = inj.cfg.ReloadValidateErrRate
	case "canary":
		rate = inj.cfg.ReloadCanaryErrRate
	}
	if u < rate {
		return fmt.Errorf("%w at %s stage", ErrInjectedReloadFault, stage)
	}
	if stage == "load" && u < rate+inj.cfg.ReloadSlowRate && inj.cfg.ReloadSlow > 0 {
		time.Sleep(inj.cfg.ReloadSlow)
	}
	return nil
}

// Now is the pipeline's budget clock: time.Now plus any scheduled skew.
// Skew is always forward (time appears to have passed), modeling a clock
// jump that ages a deadline prematurely.
func Now() time.Time {
	now := time.Now()
	inj := active.Load()
	if inj == nil {
		return now
	}
	if u, h := inj.draw(PointClock); u < inj.cfg.ClockSkewRate && inj.cfg.ClockSkewMax > 0 {
		skew := time.Duration(h % uint64(inj.cfg.ClockSkewMax))
		return now.Add(skew)
	}
	return now
}
