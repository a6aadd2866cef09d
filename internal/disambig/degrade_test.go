package disambig

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simmeasure"
	"repro/internal/wordnet"
	"repro/internal/xmltree"
	"repro/xsdferrors"
)

func degradeOpts(d Degradation) Options {
	o := DefaultOptions()
	o.SimWeights = simmeasure.EqualWeights()
	o.Degrade = d
	return o
}

// TestBudgetDisabled: the zero Degradation yields no budget, keeping the
// historical code path.
func TestBudgetDisabled(t *testing.T) {
	if b := newBudget(context.Background(), 10, Degradation{}); b != nil {
		t.Fatal("disabled ladder must not build a budget")
	}
}

// TestBudgetWatermarks: node-count watermarks start a document at a lower
// rung before any pacing happens.
func TestBudgetWatermarks(t *testing.T) {
	cfg := Degradation{Enabled: true, ConceptOnlyAfter: 10, FirstSenseAfter: 100}
	for _, tc := range []struct {
		total int
		want  xsdferrors.DegradationLevel
	}{
		{5, xsdferrors.DegradeNone},
		{11, xsdferrors.DegradeConceptOnly},
		{101, xsdferrors.DegradeFirstSense},
	} {
		b := newBudget(context.Background(), tc.total, cfg)
		if got := b.levelNow(); got != tc.want {
			t.Errorf("total %d: start level %v, want %v", tc.total, got, tc.want)
		}
	}
}

// TestBudgetPaceStepDown: a run behind its deadline share steps down one
// rung; consuming the LastRungAt fraction drops straight to first-sense.
func TestBudgetPaceStepDown(t *testing.T) {
	mk := func(elapsedFrac float64) *budget {
		dur := time.Minute
		b := &budget{
			start:    time.Now().Add(-time.Duration(elapsedFrac * float64(dur))),
			dur:      dur,
			total:    100,
			slack:    DefaultSlack,
			lastRung: DefaultLastRungAt,
		}
		return b
	}
	// 30% of budget gone, 0/100 done: 0.30 > 0 + 0.10, one rung down.
	b := mk(0.30)
	if lvl := b.next(); lvl != xsdferrors.DegradeConceptOnly {
		t.Errorf("behind schedule: level %v, want concept-only", lvl)
	}
	// 90% of budget gone: past LastRungAt, straight to first-sense.
	b = mk(0.90)
	if lvl := b.next(); lvl != xsdferrors.DegradeFirstSense {
		t.Errorf("budget nearly spent: level %v, want first-sense", lvl)
	}
	// On pace: 5% gone with 0/100 done is inside the ramp, stays full.
	b = mk(0.05)
	if lvl := b.next(); lvl != xsdferrors.DegradeNone {
		t.Errorf("on pace: level %v, want full", lvl)
	}
}

// TestBudgetLevelMonotone: raise never lowers the level.
func TestBudgetLevelMonotone(t *testing.T) {
	b := &budget{total: 1, slack: DefaultSlack, lastRung: DefaultLastRungAt}
	b.raise(xsdferrors.DegradeFirstSense)
	b.raise(xsdferrors.DegradeConceptOnly)
	if got := b.levelNow(); got != xsdferrors.DegradeFirstSense {
		t.Errorf("level %v after lower raise, want first-sense", got)
	}
}

// TestBudgetRaiseClampsAtLastRung: stepping down while already at
// first-sense stays at first-sense — the regression the chaos suite first
// caught as an out-of-range counter index.
func TestBudgetRaiseClampsAtLastRung(t *testing.T) {
	b := &budget{
		start:    time.Now().Add(-time.Hour),
		dur:      time.Minute,
		total:    100,
		slack:    DefaultSlack,
		lastRung: DefaultLastRungAt,
	}
	b.raise(xsdferrors.DegradeFirstSense)
	if lvl := b.next(); lvl != xsdferrors.DegradeFirstSense {
		t.Fatalf("behind pace at the last rung: level %v, want first-sense", lvl)
	}
	b.raise(xsdferrors.DegradeFirstSense + 1)
	if got := b.levelNow(); got != xsdferrors.DegradeFirstSense {
		t.Fatalf("explicit over-raise: level %v, want clamp at first-sense", got)
	}
}

// TestApplyReportAccounting: NodesAtLevel sum + Unscored always equals the
// target count, and per-node Degraded marks agree with the counters.
func TestApplyReportAccounting(t *testing.T) {
	tr := parse(t, figure1Doc)
	targets := tr.Nodes()
	d := New(wordnet.Default(), degradeOpts(Degradation{Enabled: true, ConceptOnlyAfter: 1}))
	rep, err := d.ApplyReport(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, n := range rep.NodesAtLevel {
		sum += n
	}
	if sum+rep.Unscored != len(targets) {
		t.Fatalf("accounting: sum %d + unscored %d != targets %d", sum, rep.Unscored, len(targets))
	}
	if rep.NodesAtLevel[xsdferrors.DegradeNone] != 0 {
		t.Errorf("watermark start: %d nodes ran at full quality", rep.NodesAtLevel[xsdferrors.DegradeNone])
	}
	if rep.Level != xsdferrors.DegradeConceptOnly {
		t.Errorf("Level = %v, want concept-only", rep.Level)
	}
	marked := 0
	for _, x := range targets {
		if x.Degraded == xsdferrors.DegradeConceptOnly {
			marked++
		}
	}
	if marked != rep.NodesAtLevel[xsdferrors.DegradeConceptOnly] {
		t.Errorf("per-node marks %d != counter %d", marked, rep.NodesAtLevel[xsdferrors.DegradeConceptOnly])
	}
}

// TestDeadlineRiddenOutAtFirstSense: with the ladder on, an expired
// deadline does not abort — every remaining target is scored at the last
// rung and the call succeeds.
func TestDeadlineRiddenOutAtFirstSense(t *testing.T) {
	for _, workers := range []int{1, 4} {
		tr := parse(t, figure1Doc)
		targets := tr.Nodes()
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		opts := degradeOpts(Degradation{Enabled: true})
		opts.Workers = workers
		rep, err := New(wordnet.Default(), opts).ApplyReport(ctx, targets)
		if err != nil {
			t.Fatalf("workers=%d: expired deadline must degrade, not fail: %v", workers, err)
		}
		if rep.Unscored != 0 {
			t.Errorf("workers=%d: %d targets left unscored", workers, rep.Unscored)
		}
		if rep.Level != xsdferrors.DegradeFirstSense {
			t.Errorf("workers=%d: Level = %v, want first-sense", workers, rep.Level)
		}
	}
}

// TestApplyReportCancelAfterLastClaim: a run errs exactly when some
// target was never claimed, so a context that ends while the last target
// is being scored leaves the run a success, whatever the worker count.
func TestApplyReportCancelAfterLastClaim(t *testing.T) {
	for _, workers := range []int{1, 3} {
		tr := parse(t, figure1Doc)
		targets := tr.Nodes()
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int32
		opts := degradeOpts(Degradation{})
		opts.Workers = workers
		opts.NodeHook = func(*xmltree.Node) {
			if int(calls.Add(1)) == len(targets) {
				cancel()
			}
		}
		rep, err := New(wordnet.Default(), opts).ApplyReport(ctx, targets)
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: every target was claimed, want nil, got %v", workers, err)
		}
		if rep.Unscored != 0 || rep.NodesAtLevel[xsdferrors.DegradeNone] != len(targets) {
			t.Errorf("workers=%d: report %+v, want all %d targets attempted", workers, rep, len(targets))
		}
	}
}

// TestCancelMidLadderReturnsDegradedError: explicit cancellation with the
// ladder on aborts with a *DegradedError carrying exact accounting.
func TestCancelMidLadderReturnsDegradedError(t *testing.T) {
	tr := parse(t, figure1Doc)
	targets := tr.Nodes()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := New(wordnet.Default(), degradeOpts(Degradation{Enabled: true})).ApplyReport(ctx, targets)
	if !errors.Is(err, xsdferrors.ErrDegraded) || !errors.Is(err, xsdferrors.ErrCanceled) {
		t.Fatalf("want ErrDegraded+ErrCanceled, got %v", err)
	}
	var de *xsdferrors.DegradedError
	if !errors.As(err, &de) {
		t.Fatal("errors.As must find *DegradedError")
	}
	if de.Unscored != rep.Unscored || rep.Unscored != len(targets) {
		t.Errorf("pre-canceled run: Unscored = %d/%d, want all %d",
			de.Unscored, rep.Unscored, len(targets))
	}
}

// TestLadderOffKeepsCancelSemantics: without the ladder, cancellation
// fails exactly as before — plain ErrCanceled, no ErrDegraded.
func TestLadderOffKeepsCancelSemantics(t *testing.T) {
	tr := parse(t, figure1Doc)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := New(wordnet.Default(), degradeOpts(Degradation{})).ApplyReport(ctx, tr.Nodes())
	if !errors.Is(err, xsdferrors.ErrCanceled) || errors.Is(err, xsdferrors.ErrDegraded) {
		t.Fatalf("ladder off: want plain ErrCanceled, got %v", err)
	}
}

// TestFirstSenseRungScoresMonosemous: the last rung assigns the dominant
// sense with score 1 only for fully monosemous labels.
func TestFirstSenseRungScoresMonosemous(t *testing.T) {
	tr := parse(t, figure1Doc)
	d := New(wordnet.Default(), degradeOpts(Degradation{Enabled: true}))
	// "kelly" is polysemous: first-sense must pick index 0 with score 0.
	kelly := find(t, tr, "kelly")
	id, score, ok := d.firstSense(kelly)
	if !ok {
		t.Fatal("first-sense failed on known label")
	}
	if want := d.net.Senses("kelly")[0]; id != string(want) || score != 0 {
		t.Errorf("polysemous first-sense = %v score %v, want %v score 0", id, score, want)
	}
}
