// The staged pipeline: ProcessTreeContext's module bodies, declared as
// named pipeline.Stage values and executed by one shared
// pipeline.Runner. The stage list is the paper's module diagram (§3,
// Figure 3) plus the robustness stages that grew around it:
//
//	guard → admission → preprocess → select → disambiguate → harmonize
//
// All per-document mutable state lives in the run value threaded through
// the stages; the middleware (cancellation, panic boxing, fault
// injection, timing) is applied once, by the runner, never inline.
package core

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/ambiguity"
	"repro/internal/disambig"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/xmltree"
)

// The stage names, in execution order. They key Result.Stages,
// Framework.StageStats, and the serving layer's /statusz report.
const (
	StageGuard        = "guard"
	StageAdmission    = "admission"
	StagePreprocess   = "preprocess"
	StageSelect       = "select"
	StageDisambiguate = "disambiguate"
	StageHarmonize    = "harmonize"
)

// stageNames is the declared order; numStages sizes the per-stage
// counter arrays.
var stageNames = [...]string{
	StageGuard, StageAdmission, StagePreprocess,
	StageSelect, StageDisambiguate, StageHarmonize,
}

const numStages = len(stageNames)

// StageTiming is one stage's per-run record: name, the number of items
// it worked over, its duration, and whether the run stopped at it.
type StageTiming = pipeline.Timing

// run is the per-document state threaded through the pipeline stages.
// Stages communicate exclusively through it: no stage holds document
// state of its own, so one Runner serves every document of a framework.
type run struct {
	fw   *Framework
	tree *xmltree.Tree

	// snap is the lexicon snapshot this run pinned at admission. Stages
	// read the network and caches exclusively through it, never through
	// the framework's current pointer: a hot-swap mid-run must not mix
	// two lexicon versions inside one document.
	snap *snapshot

	// canary marks a reload-canary probe run: it scores against a
	// candidate snapshot that is not serving yet, and skips the
	// admission gate so a reload can never shed or starve real traffic.
	canary bool

	// hooks is the fault-injection callback seam, snapshotted once at
	// run start so a concurrent SetTestHooks cannot tear a run.
	hooks faultinject.Hooks

	// release returns the admission gate's capacity; nil until the
	// admission stage acquires (or when the gate is disabled). The
	// pipeline caller releases it after the run, success or not.
	release func()

	// threshold and targets are the node-selection module's outputs.
	threshold float64
	targets   []*xmltree.Node

	// res is the document result, built by the disambiguation stage. It
	// stays non-nil on a degraded abort (partial result + ErrDegraded).
	res *Result
}

// stageIndex maps a stage name back to its position in the declared
// order, for the histogram hook.
var stageIndex = func() map[string]int {
	m := make(map[string]int, numStages)
	for i, name := range stageNames {
		m[name] = i
	}
	return m
}()

// newPipeline declares the framework's stage list. Built once in New and
// shared by every document the framework processes; a second instance
// without the stats hook serves reload canaries (instrument=false), so
// probe runs never leak into serving-latency histograms.
func (f *Framework) newPipeline(instrument bool) *pipeline.Runner[*run] {
	degrade := f.opts.Disambiguation.Degrade.Enabled
	cfg := pipeline.Config{
		// With the ladder on, an expired deadline is not a reason to
		// abort between stages: disambiguation rides it out at the last
		// rung. Explicit cancellation still aborts.
		TolerateCtxErr: func(err error) bool {
			return degrade && errors.Is(err, context.DeadlineExceeded)
		},
	}
	if instrument {
		// Every executed stage feeds its per-stage latency histogram —
		// the distribution behind the cumulative totals of StageStats,
		// exported by the serving layer as xsdf_stage_duration_seconds.
		cfg.OnStage = func(_ context.Context, stage string, _ int, d time.Duration, _ bool) {
			if i, ok := stageIndex[stage]; ok {
				f.stageHists[i].Observe(d.Seconds())
			}
		}
	}
	return pipeline.New(cfg,
		pipeline.Stage[*run]{Name: StageGuard, Run: stageGuard},
		pipeline.Stage[*run]{Name: StageAdmission, Run: stageAdmission},
		pipeline.Stage[*run]{Name: StagePreprocess, Run: stagePreprocess},
		pipeline.Stage[*run]{Name: StageSelect, Run: stageSelect},
		pipeline.Stage[*run]{Name: StageDisambiguate, Run: stageDisambiguate},
		pipeline.Stage[*run]{Name: StageHarmonize, Run: stageHarmonize},
	)
}

// stageGuard enforces the whole-tree resource limits on pre-parsed input
// before any work is admitted or performed.
func stageGuard(_ context.Context, r *run) (int, error) {
	return r.tree.Len(), r.fw.guardTree(r.tree)
}

// stageAdmission takes the admission gate's capacity for this document
// (weighted by node count), parking the release function in the run
// state. A no-op when admission control is disabled, and for reload
// canaries: probe runs must neither consume capacity real traffic is
// waiting on nor be shed by it.
func stageAdmission(ctx context.Context, r *run) (int, error) {
	g := r.fw.gate
	if g == nil || r.canary {
		return 0, nil
	}
	release, err := g.acquire(ctx, r.tree.Len(), r.fw.opts.Admission.MaxWait)
	if err != nil {
		return r.tree.Len(), err
	}
	r.release = release
	return r.tree.Len(), nil
}

// stagePreprocess is module 1: linguistic pre-processing. The BeforeTree
// hook and the tree-level fault point fire here — after admission,
// exactly where the inline pipeline fired them.
func stagePreprocess(_ context.Context, r *run) (int, error) {
	if r.hooks.BeforeTree != nil {
		r.hooks.BeforeTree(r.tree)
	}
	faultinject.TreeStart()
	r.snap.proc.ProcessTree(r.tree)
	return r.tree.Len(), nil
}

// stageSelect is module 2: ambiguity-based node selection.
func stageSelect(_ context.Context, r *run) (int, error) {
	f := r.fw
	r.threshold = f.opts.Threshold
	if f.opts.AutoThreshold {
		r.threshold = ambiguity.AutoThreshold(r.tree, r.snap.net, f.opts.Ambiguity, f.opts.AutoThresholdK)
	}
	r.targets = ambiguity.Select(r.tree, r.snap.net, f.opts.Ambiguity, r.threshold)
	return len(r.targets), nil
}

// stageDisambiguate is modules 3 + 4: sphere context construction and
// semantic disambiguation. The disambiguator is per-document (its run
// resolves the document into a pooled table) but draws on the
// framework-shared similarity and vector caches. The Result is built here
// even when ApplyReport fails, so a degraded abort hands back the partial
// accounting.
func stageDisambiguate(ctx context.Context, r *run) (int, error) {
	f := r.fw
	disOpts := f.opts.Disambiguation
	if r.hooks.BeforeNode != nil {
		disOpts.NodeHook = r.hooks.BeforeNode
	}
	dis := disambig.NewShared(r.snap.cache, disOpts)
	rep, err := dis.ApplyReport(ctx, r.targets)
	r.res = &Result{
		Tree:           r.tree,
		Targets:        len(r.targets),
		Assigned:       rep.Assigned,
		Threshold:      r.threshold,
		Degraded:       rep.Level,
		NodesAtLevel:   rep.NodesAtLevel,
		Unscored:       rep.Unscored,
		LexiconEpoch:   r.snap.info.Epoch,
		LexiconVersion: r.snap.info.Version,
	}
	return len(r.targets), err
}

// stageHarmonize is the Gale-Church-Yarowsky one-sense-per-discourse pass
// (opt-in). A degraded abort never reaches it: the runner stops at the
// disambiguation stage's error, so harmonization cannot act on an
// inconsistent prefix.
func stageHarmonize(_ context.Context, r *run) (int, error) {
	if !r.fw.opts.OneSensePerDiscourse {
		return 0, nil
	}
	return disambig.Harmonize(r.targets), nil
}

// stageCounters is one stage's cumulative accounting, maintained with
// atomics so batch workers record concurrently without a lock.
type stageCounters struct {
	calls atomic.Uint64
	errs  atomic.Uint64
	items atomic.Uint64
	nanos atomic.Int64
}

// StageStats is the cumulative per-stage accounting of a Framework:
// how many runs attempted the stage, how many stopped at it, how many
// items it worked over, and its total duration — the "where does the
// time go" answer for operators and the serving layer's /statusz.
type StageStats struct {
	Stage  string
	Calls  uint64
	Errors uint64
	Items  uint64
	Total  time.Duration
}

// StageLatency pairs a stage name with its latency distribution since
// framework construction: the histogram counterpart of StageStats'
// cumulative totals, in seconds, for Prometheus-style exposition.
type StageLatency struct {
	Stage   string
	Latency metrics.HistogramSnapshot
}

// StageLatencies snapshots the per-stage latency histograms, one entry
// per declared stage in execution order. Only stages that actually ran
// are counted (stages refused by the cancellation check carry no
// duration), so a stage's histogram count can trail its StageStats.Calls.
func (f *Framework) StageLatencies() []StageLatency {
	out := make([]StageLatency, numStages)
	for i, name := range stageNames {
		out[i] = StageLatency{Stage: name, Latency: f.stageHists[i].Snapshot()}
	}
	return out
}

// StageStats snapshots the cumulative per-stage counters, one entry per
// declared stage in execution order.
func (f *Framework) StageStats() []StageStats {
	out := make([]StageStats, numStages)
	for i, name := range stageNames {
		c := &f.stageStats[i]
		out[i] = StageStats{
			Stage:  name,
			Calls:  c.calls.Load(),
			Errors: c.errs.Load(),
			Items:  c.items.Load(),
			Total:  time.Duration(c.nanos.Load()),
		}
	}
	return out
}

// recordStages folds one run's timings into the cumulative counters. The
// runner returns timings as a prefix of the declared stage list, so
// position identifies the stage.
func (f *Framework) recordStages(timings []pipeline.Timing) {
	for i, tm := range timings {
		if i >= numStages {
			break
		}
		c := &f.stageStats[i]
		c.calls.Add(1)
		if tm.Failed {
			c.errs.Add(1)
		}
		c.items.Add(uint64(tm.Items))
		c.nanos.Add(int64(tm.Duration))
	}
}
