package xsdf_test

// Chaos suite: drives the full synthetic corpus through randomized — but
// seed-reproducible — fault schedules (injected panics, slow and failed
// semantic-network lookups, poisoned cache reads, clock skew, per-document
// timeouts) and asserts the robustness invariants: every document either
// carries a typed error or an exactly-accounted Result, and per-node
// degradation marks always agree with the per-document counters. Run with
// -race; a failure reproduces from the seed printed in the subtest name.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro"
	"repro/internal/faultinject"
)

// chaosSchedules is the number of randomized fault schedules the suite
// drives the corpus through (the acceptance floor is 50).
const chaosSchedules = 50

// chaosConfig is one seed's derived scenario.
type chaosConfig struct {
	faults     faultinject.Config
	degrade    xsdf.DegradeOptions
	docTimeout time.Duration
	workers    int
	nodeWork   int
}

// deriveChaosConfig expands a seed into a full scenario. Everything is a
// pure function of the seed, so a failing schedule replays exactly.
func deriveChaosConfig(seed int64) chaosConfig {
	rng := rand.New(rand.NewSource(seed))
	cfg := chaosConfig{
		faults: faultinject.Config{
			Seed:            seed,
			TreePanicRate:   0.10 * rng.Float64(),
			NodePanicRate:   0.005 * rng.Float64(),
			NodeDelayRate:   0.02 * rng.Float64(),
			NodeDelay:       time.Millisecond,
			LookupErrRate:   0.05 * rng.Float64(),
			LookupDelayRate: 0.02 * rng.Float64(),
			LookupDelay:     100 * time.Microsecond,
			CachePoisonRate: 0.05 * rng.Float64(),
			ClockSkewRate:   0.20 * rng.Float64(),
			ClockSkewMax:    50 * time.Millisecond,
		},
		workers:  1 + rng.Intn(4),
		nodeWork: []int{0, 0, 2}[rng.Intn(3)],
	}
	if rng.Intn(2) == 0 {
		cfg.degrade.Enabled = true
		switch rng.Intn(3) {
		case 1:
			cfg.degrade.ConceptOnlyAfter = 40
		case 2:
			cfg.degrade.FirstSenseAfter = 40
		}
	}
	if rng.Intn(2) == 0 {
		cfg.docTimeout = time.Duration(5+rng.Intn(25)) * time.Millisecond
	}
	// Drawn last so earlier schedule shapes are unchanged across seeds.
	cfg.faults.StagePanicRate = 0.02 * rng.Float64()
	return cfg
}

// chaosFrameworks caches one Framework per distinct option set, so the
// shared similarity cache warms across schedules (poisoned reads never
// enter the cache, so reuse cannot leak one seed's faults into another).
// TestChaosSchedules empties it when it finishes, so the warm caches do
// not count against later tests that measure the process heap.
var chaosFrameworks = map[string]*xsdf.Framework{}

func chaosFramework(t *testing.T, d xsdf.DegradeOptions, nodeWorkers int) *xsdf.Framework {
	t.Helper()
	key := fmt.Sprintf("%+v/%d", d, nodeWorkers)
	if fw, ok := chaosFrameworks[key]; ok {
		return fw
	}
	fw, err := xsdf.New(xsdf.Options{Radius: 2, Degrade: d, NodeWorkers: nodeWorkers})
	if err != nil {
		t.Fatal(err)
	}
	chaosFrameworks[key] = fw
	return fw
}

func TestChaosSchedules(t *testing.T) {
	t.Cleanup(func() { clear(chaosFrameworks) })
	n := chaosSchedules
	if testing.Short() {
		n = 10
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosSchedule(t, seed)
		})
	}
}

func runChaosSchedule(t *testing.T, seed int64) {
	cfg := deriveChaosConfig(seed)
	restore := faultinject.Install(faultinject.New(cfg.faults))
	defer restore()

	fw := chaosFramework(t, cfg.degrade, cfg.nodeWork)
	trees := freshCorpusTrees()
	results, err := fw.DisambiguateBatchContext(context.Background(), trees,
		xsdf.BatchOptions{Workers: cfg.workers, DocTimeout: cfg.docTimeout})

	var be *xsdf.BatchError
	if err != nil && !errors.As(err, &be) {
		t.Fatalf("batch error must be *BatchError, got %T: %v", err, err)
	}
	for i, res := range results {
		var docErr error
		if be != nil {
			docErr = be.Errs[i]
		}
		if res == nil {
			checkChaosFailure(t, i, docErr)
			continue
		}
		checkChaosResult(t, i, cfg, res, docErr, trees[i])
	}
}

// checkChaosFailure: a nil result slot must carry a typed error from the
// known fault families — an injected panic, a timeout, or an overload.
func checkChaosFailure(t *testing.T, doc int, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("doc %d: nil result with nil error", doc)
		return
	}
	var pe *xsdf.PanicError
	switch {
	case errors.As(err, &pe):
		if _, ok := pe.Value.(faultinject.InjectedPanic); !ok {
			t.Errorf("doc %d: panic value %T is not an injected fault — a genuine bug?", doc, pe.Value)
		}
	case errors.Is(err, xsdf.ErrCanceled) && !errors.Is(err, xsdf.ErrDegraded):
		// Per-document timeout with the ladder off.
	case errors.Is(err, xsdf.ErrOverloaded):
		// Admission rejection (not configured here, but a legal family).
	default:
		t.Errorf("doc %d: untyped failure %v", doc, err)
	}
}

// checkChaosResult: a populated result must account for every target
// exactly, agree with the per-node degradation marks, and respect the
// configured ladder.
func checkChaosResult(t *testing.T, doc int, cfg chaosConfig, res *xsdf.Result, err error, tree *xsdf.Tree) {
	t.Helper()
	if err != nil && !errors.Is(err, xsdf.ErrDegraded) {
		t.Errorf("doc %d: non-nil result with non-degraded error %v", doc, err)
		return
	}
	if err == nil && res.Unscored != 0 {
		t.Errorf("doc %d: %d unscored targets without a degraded error", doc, res.Unscored)
	}
	sum := 0
	for _, n := range res.NodesAtLevel {
		sum += n
	}
	if sum+res.Unscored != res.Targets {
		t.Errorf("doc %d: NodesAtLevel sum %d + Unscored %d != Targets %d",
			doc, sum, res.Unscored, res.Targets)
	}
	var marks [xsdf.NumDegradationLevels]int
	for _, n := range tree.Nodes() {
		if n.Degraded != xsdf.DegradeNone {
			marks[n.Degraded]++
		}
	}
	for lvl := 1; lvl < xsdf.NumDegradationLevels; lvl++ {
		if marks[lvl] != res.NodesAtLevel[lvl] {
			t.Errorf("doc %d: %d nodes marked level %d, counter says %d",
				doc, marks[lvl], lvl, res.NodesAtLevel[lvl])
		}
	}
	if !cfg.degrade.Enabled {
		if res.Degraded != xsdf.DegradeNone || marks[1]+marks[2] != 0 {
			t.Errorf("doc %d: degradation reported with the ladder off", doc)
		}
		return
	}
	if w := cfg.degrade.FirstSenseAfter; w > 0 && res.Targets > w {
		if res.NodesAtLevel[xsdf.DegradeNone] != 0 || res.NodesAtLevel[xsdf.DegradeConceptOnly] != 0 {
			t.Errorf("doc %d: %d targets past the first-sense watermark scored above it",
				doc, res.NodesAtLevel[xsdf.DegradeNone]+res.NodesAtLevel[xsdf.DegradeConceptOnly])
		}
	}
	if w := cfg.degrade.ConceptOnlyAfter; w > 0 && res.Targets > w {
		if res.NodesAtLevel[xsdf.DegradeNone] != 0 {
			t.Errorf("doc %d: %d targets past the concept-only watermark ran at full quality",
				doc, res.NodesAtLevel[xsdf.DegradeNone])
		}
	}
}

// TestFaultsDisabledBitIdentical is the degradation tentpole's safety
// proof: with no injector installed and the ladder off, two batch runs per
// method produce byte-for-byte identical sense assignments across the full
// corpus — 10,317 assignments over the three methods — and no node carries
// a degradation mark.
func TestFaultsDisabledBitIdentical(t *testing.T) {
	if faultinject.Enabled() {
		t.Fatal("an injector is installed; chaos cleanup leaked")
	}
	const wantAssignments = 10317
	total := 0
	for _, m := range []struct {
		name   string
		method xsdf.Method
	}{{"concept", xsdf.ConceptBased}, {"context", xsdf.ContextBased}, {"combined", xsdf.Combined}} {
		run := func() ([]string, int) {
			fw, err := xsdf.New(xsdf.Options{Radius: 2, Method: m.method})
			if err != nil {
				t.Fatal(err)
			}
			results, err := fw.DisambiguateBatch(freshCorpusTrees(), 4)
			if err != nil {
				t.Fatal(err)
			}
			var flat []string
			assigned := 0
			for _, res := range results {
				assigned += res.Assigned
				if res.Degraded != xsdf.DegradeNone {
					t.Fatalf("%s: degradation level %v with the ladder off", m.name, res.Degraded)
				}
				for _, n := range res.Tree.Nodes() {
					if n.Degraded != xsdf.DegradeNone {
						t.Fatalf("%s: node %q carries a degradation mark", m.name, n.Label)
					}
					flat = append(flat, fmt.Sprintf("%s\x00%.17g", n.Sense, n.SenseScore))
				}
			}
			return flat, assigned
		}
		a, countA := run()
		b, countB := run()
		if countA != countB || len(a) != len(b) {
			t.Fatalf("%s: run shapes differ: %d/%d assignments over %d/%d nodes",
				m.name, countA, countB, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: assignment %d differs between identical runs: %q vs %q", m.name, i, a[i], b[i])
			}
		}
		total += countA
	}
	if total != wantAssignments {
		t.Errorf("corpus assignments = %d, want %d", total, wantAssignments)
	}
}
