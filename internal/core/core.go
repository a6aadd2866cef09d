// Package core implements the XSDF framework itself (§3, Figure 3): the
// four-module pipeline that turns a syntactic XML tree into a semantic XML
// tree given a reference semantic network and user parameters.
//
//	input XML tree ──► linguistic pre-processing ──► node selection
//	      ──► sphere context definition ──► semantic disambiguation
//	      ──► semantic XML tree (concept-annotated nodes)
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ambiguity"
	"repro/internal/disambig"
	"repro/internal/lingproc"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/semnet"
	"repro/internal/xmltree"
	"repro/xsdferrors"
)

// Options aggregates every user parameter of the framework. Zero values are
// replaced by the defaults documented on each field.
type Options struct {
	// IncludeContent selects structure-and-content (true, default via
	// DefaultOptions) or structure-only processing (§3.1).
	IncludeContent bool
	// Ambiguity holds the w_Polysemy/w_Depth/w_Density weights of the
	// ambiguity degree measure (Definition 3).
	Ambiguity ambiguity.Weights
	// Threshold is Thresh_Amb: nodes with Amb_Deg >= Threshold are selected
	// for disambiguation. 0 selects all nodes.
	Threshold float64
	// AutoThreshold, when true, estimates Threshold from the document's
	// degree distribution (mean + AutoThresholdK·stddev) and overrides
	// Threshold.
	AutoThreshold  bool
	AutoThresholdK float64
	// Disambiguation holds the context radius, process choice, and
	// similarity weights (§3.5).
	Disambiguation disambig.Options
	// OneSensePerDiscourse runs the Gale-Church-Yarowsky harmonization pass
	// after disambiguation: repeated labels in one document converge on
	// their highest-scoring sense (extension beyond the paper, opt-in).
	OneSensePerDiscourse bool

	// MaxDepth and MaxNodes are resource guards for already-parsed trees
	// (trees arriving through ProcessTree/ProcessTrees bypass the parse
	// guards of xmltree.ParseOptions). MaxDepth bounds element nesting, so
	// node depths may legitimately exceed it by the attribute and token
	// levels (two extra edges); MaxNodes bounds the total node count. Zero
	// or negative disables a guard. Violations return an
	// *xsdferrors.LimitError before any processing starts.
	MaxDepth int
	MaxNodes int
	// MaxTokenBytes bounds the byte size of a single text value at parse
	// time (ProcessReader only: pre-parsed trees already hold their
	// tokens). Zero selects the xmltree default; negative disables the
	// guard.
	MaxTokenBytes int

	// Admission bounds how much work the framework accepts concurrently;
	// documents arriving beyond the bounds wait up to Admission.MaxWait and
	// are then rejected with a *xsdferrors.OverloadError. The zero value
	// admits everything. The degradation ladder is configured separately,
	// on Disambiguation.Degrade.
	Admission AdmissionOptions
}

// DefaultOptions mirrors §3.3's sensible starting configuration: equal
// ambiguity weights, Thresh_Amb = 0 (all nodes considered), radius 1,
// concept-based process with equal similarity weights.
func DefaultOptions() Options {
	return Options{
		IncludeContent: true,
		Ambiguity:      ambiguity.EqualWeights(),
		Threshold:      0,
		Disambiguation: disambig.DefaultOptions(),
	}
}

// Result reports what the pipeline did to one document.
type Result struct {
	// Tree is the semantically augmented document tree (same object as the
	// input tree: annotation happens in place).
	Tree *xmltree.Tree
	// Targets is the number of nodes selected for disambiguation.
	Targets int
	// Assigned is the number of targets that received a sense.
	Assigned int
	// Threshold is the effective Thresh_Amb used (relevant with
	// AutoThreshold).
	Threshold float64
	// Degraded is the worst degradation-ladder level any target was scored
	// at: DegradeNone when the ladder is off or the document ran at full
	// quality throughout.
	Degraded xsdferrors.DegradationLevel
	// NodesAtLevel counts the targets attempted at each ladder level;
	// NodesAtLevel sum + Unscored == Targets on every return, including
	// degraded ones.
	NodesAtLevel [xsdferrors.NumDegradationLevels]int
	// Unscored is the number of targets never attempted (the run was
	// canceled mid-ladder). Non-zero only alongside an ErrDegraded error.
	Unscored int
	// Stages is the per-stage instrumentation of this run: one entry per
	// attempted pipeline stage, in execution order, with the item count
	// and monotonic duration of each. On a degraded abort it covers the
	// stages that ran (harmonization is skipped); nil only when the run
	// failed before the disambiguation stage could build a Result.
	Stages []StageTiming
	// LexiconEpoch and LexiconVersion identify the lexicon snapshot every
	// sense in this result was scored against — one snapshot per run,
	// pinned at admission, so the pair is internally consistent even when
	// a hot-swap landed mid-run.
	LexiconEpoch   uint64
	LexiconVersion string
}

// Framework is a reusable XSDF instance serving one semantic network at
// a time. The network and every cache keyed by its concept IDs live in a
// versioned snapshot behind an atomic pointer (snapshot.go): every
// document pins the snapshot it starts with and scores exclusively
// against it, so corpora with repeated vocabulary share warm memos, and
// a lexicon hot-swap (Reload) can never mix two versions inside a run.
type Framework struct {
	snap atomic.Pointer[snapshot]
	opts Options
	gate *gate // nil when Options.Admission is the zero value

	// Hot-swap state: reloads serialize on reloadMu (the data path never
	// touches it); epoch numbers the swap generations; the counters,
	// gauge, and histogram feed /statusz and /metricsz.
	reloadMu        sync.Mutex
	epoch           atomic.Uint64
	swaps           atomic.Uint64
	rollbacks       atomic.Uint64
	canaryFails     atomic.Uint64
	retiredAwaiting atomic.Int64
	reloadHist      *metrics.Histogram

	// pipe is the staged pipeline every document runs through; built once
	// in New and shared (stages keep all per-document state in a run
	// value). canaryPipe is the same stage list without the stats hook,
	// so reload canaries don't pollute serving-latency histograms.
	// stageStats accumulates per-stage calls/errors/items/time across the
	// framework's lifetime; stageHists holds the matching latency
	// distributions, fed by the runner's OnStage hook.
	pipe       *pipeline.Runner[*run]
	canaryPipe *pipeline.Runner[*run]
	stageStats [numStages]stageCounters
	stageHists [numStages]*metrics.Histogram
}

// New returns a Framework over the given semantic network. net must be
// non-nil.
func New(net *semnet.Network, opts Options) (*Framework, error) {
	if net == nil {
		return nil, fmt.Errorf("core: nil semantic network")
	}
	if sw := opts.Disambiguation.SimWeights; sw.Edge < 0 || sw.Node < 0 || sw.Gloss < 0 {
		return nil, fmt.Errorf("core: negative similarity weight %+v", sw)
	}
	if err := opts.Disambiguation.SimWeights.Normalize().Validate(); err != nil {
		return nil, err
	}
	// A NaN selection option makes every degree or the threshold NaN, and
	// every document would select no target while reporting success.
	if opts.Ambiguity.HasNaN() {
		return nil, fmt.Errorf("%w: NaN ambiguity weight %+v", xsdferrors.ErrUnknownOption, opts.Ambiguity)
	}
	if math.IsNaN(opts.Threshold) || math.IsNaN(opts.AutoThresholdK) {
		return nil, fmt.Errorf("%w: NaN Threshold %v or AutoThresholdK %v",
			xsdferrors.ErrUnknownOption, opts.Threshold, opts.AutoThresholdK)
	}
	f := &Framework{
		opts:       opts,
		gate:       newGate(opts.Admission),
		reloadHist: metrics.NewHistogram(nil),
	}
	for i := range f.stageHists {
		f.stageHists[i] = metrics.NewHistogram(nil)
	}
	f.pipe = f.newPipeline(true)
	f.canaryPipe = f.newPipeline(false)
	// A network read from a codec file carries the file's identity — the
	// one a reload of that file reports. Any other network is identified
	// by the checksum of its canonical Save bytes.
	file, ok := net.File()
	if !ok {
		file.Checksum = net.Checksum()
		file.Version = semnet.VersionLabel(file.Checksum)
	}
	f.snap.Store(f.newSnapshot(net, LexiconInfo{
		Epoch:    f.epoch.Add(1),
		Version:  file.Version,
		Checksum: file.Checksum,
		Source:   "construction",
		Concepts: net.Len(),
		LoadedAt: time.Now(),
	}))
	return f, nil
}

// Network returns the semantic network of the currently serving
// snapshot. Callers that correlate several reads (a concept lookup after
// a sense listing, say) should re-read per use, not cache the pointer
// across requests: a Reload may retire it at any time.
func (f *Framework) Network() *semnet.Network { return f.snap.Load().net }

// Options returns the active configuration.
func (f *Framework) Options() Options { return f.opts }

// NewDisambiguator returns a disambiguator configured like the pipeline's
// and backed by the current snapshot's shared cache — the entry point for
// callers (xsdf.Candidates, diagnostics) that score nodes outside a full
// pipeline run but should still reuse the warm memos.
func (f *Framework) NewDisambiguator() *disambig.Disambiguator {
	return disambig.NewShared(f.snap.Load().cache, f.opts.Disambiguation)
}

// CacheStats reports the current snapshot's cache hit/miss counters, for
// observability and effectiveness tests. Counters restart from zero when
// a reload swaps the snapshot (caches are snapshot-resident by design).
func (f *Framework) CacheStats() disambig.CacheStats { return f.snap.Load().cache.Stats() }

// ProcessReader parses an XML document from r and runs the full pipeline.
func (f *Framework) ProcessReader(r io.Reader) (*Result, error) {
	t, err := xmltree.Parse(r, xmltree.ParseOptions{
		IncludeContent: f.opts.IncludeContent,
		Tokenize:       lingproc.Tokenize,
		MaxDepth:       f.opts.MaxDepth,
		MaxNodes:       f.opts.MaxNodes,
		MaxTokenBytes:  f.opts.MaxTokenBytes,
	})
	if err != nil {
		return nil, err
	}
	return f.ProcessTree(t)
}

// ProcessTree runs modules 1–4 on an already-parsed tree, annotating it in
// place. The tree may or may not have been linguistically pre-processed;
// pre-processing is idempotent, so it always runs here.
func (f *Framework) ProcessTree(t *xmltree.Tree) (*Result, error) {
	return f.ProcessTreeContext(context.Background(), t)
}

// ProcessTreeContext is ProcessTree with cooperative cancellation,
// resource guards, admission control, and graceful degradation. The
// context is checked between pipeline modules and before every
// disambiguated node, so cancellation returns within one node's processing
// time with an error matching xsdferrors.ErrCanceled; trees violating
// Options.MaxDepth/MaxNodes are rejected up front with an
// *xsdferrors.LimitError, and trees arriving while the admission gate is
// full are rejected with a *xsdferrors.OverloadError.
//
// With Disambiguation.Degrade enabled, a deadline that expires mid-run no
// longer aborts: scoring steps down the ladder and the call returns a
// complete Result with the achieved level in Result.Degraded. Only an
// explicit cancellation still cuts the run short, returning the partial
// Result alongside a *xsdferrors.DegradedError. With the ladder off (the
// default), errors leave the result nil and the tree possibly partially
// annotated, exactly as before.
func (f *Framework) ProcessTreeContext(ctx context.Context, t *xmltree.Tree) (*Result, error) {
	// Every module body lives in a named pipeline.Stage (stages.go); this
	// function only dispatches the run, threads the timings, and maps the
	// stop condition onto the historical result/error contract.
	//
	// The run pins the current lexicon snapshot here — before any stage —
	// and every stage reads the network and caches through the pin, so
	// the whole run (batch worker, stream line, and subtree runs all
	// funnel through this function) scores against exactly one lexicon
	// version even when a Reload swaps mid-flight. The deferred unpin is
	// what lets a retired snapshot finally drain.
	r := &run{fw: f, tree: t, snap: f.pin(), hooks: currentHooks()}
	defer func() {
		if r.release != nil {
			r.release()
		}
		r.snap.unpin()
	}()
	timings, err := f.pipe.Run(ctx, r)
	f.recordStages(timings)
	if r.res != nil {
		r.res.Stages = timings
	}
	if err != nil {
		if errors.Is(err, xsdferrors.ErrDegraded) {
			// Canceled mid-ladder: hand back what was scored. The runner
			// stopped at the disambiguation stage, so the harmonization
			// pass never acts on an inconsistent prefix.
			return r.res, err
		}
		return nil, err
	}
	return r.res, nil
}

// guardTree enforces the whole-tree resource limits on pre-parsed input.
func (f *Framework) guardTree(t *xmltree.Tree) error {
	// Element nesting of depth d yields node depths up to d+2 (attribute
	// and token levels), so the depth guard allows that slack: a document
	// accepted by the equivalent parse-time guard passes here too.
	if f.opts.MaxDepth > 0 && t.MaxDepth() > f.opts.MaxDepth+2 {
		return &xsdferrors.LimitError{Limit: "depth", Max: f.opts.MaxDepth, Actual: t.MaxDepth()}
	}
	if f.opts.MaxNodes > 0 && t.Len() > f.opts.MaxNodes {
		return &xsdferrors.LimitError{Limit: "nodes", Max: f.opts.MaxNodes, Actual: t.Len()}
	}
	return nil
}
