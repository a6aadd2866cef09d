package disambig

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/xmltree"
	"repro/xsdferrors"
)

// Degradation configures the graceful-degradation ladder of ApplyReport:
// instead of failing when a document blows its deadline or is too large,
// scoring steps down the rungs
//
//	configured method → concept-only (Definition 8) → first-sense
//
// and the achieved level is recorded per node (xmltree.Node.Degraded) and
// per document (Report). The zero value disables the ladder, keeping the
// historical fail-on-deadline semantics bit for bit.
type Degradation struct {
	// Enabled turns the ladder on.
	Enabled bool

	// ConceptOnlyAfter and FirstSenseAfter are node-count watermarks: a
	// document with more targets than a watermark starts at that rung
	// instead of discovering mid-run that it cannot afford full scoring.
	// 0 disables a watermark.
	ConceptOnlyAfter int
	FirstSenseAfter  int

	// Slack is the tolerated schedule deficit before stepping down, as a
	// fraction of the deadline budget: with budget B, n targets, and k
	// done after elapsed e, the run is on pace when e/B <= k/n + Slack.
	// 0 selects DefaultSlack.
	Slack float64

	// LastRungAt is the consumed-budget fraction at which the ladder
	// drops straight to first-sense regardless of pace, reserving the
	// tail of the budget for finishing cheaply. 0 selects
	// DefaultLastRungAt.
	LastRungAt float64
}

// Defaults of the budget pacing parameters.
const (
	DefaultSlack      = 0.10
	DefaultLastRungAt = 0.85

	// rampFraction suppresses pace checks in the first sliver of the
	// budget, where e/B is dominated by fixed startup cost and a single
	// slow node would trigger a spurious downgrade.
	rampFraction = 0.02
)

// Report is the accounting of one ApplyReport run. The invariant
// NodesAtLevel[0]+NodesAtLevel[1]+NodesAtLevel[2]+Unscored == len(targets)
// holds on every return, including degraded and canceled ones.
type Report struct {
	// Assigned is the number of targets that received a sense.
	Assigned int
	// Level is the worst (highest) ladder level any target was scored
	// at; DegradeNone when the ladder is off or never stepped down.
	Level xsdferrors.DegradationLevel
	// NodesAtLevel counts the targets attempted at each ladder level.
	NodesAtLevel [xsdferrors.NumDegradationLevels]int
	// Unscored is the number of targets never attempted (the run was
	// canceled before reaching them). Non-zero only on degraded returns.
	Unscored int
}

// budget tracks one document's degradation state: the deadline share
// consumed versus targets completed, and the current (monotone
// non-decreasing) ladder level. It is safe for concurrent use by node
// workers. The clock routes through faultinject.Now, the seam for
// clock-skew injection.
type budget struct {
	start    time.Time
	dur      time.Duration // 0 = no deadline: watermarks only
	total    int
	slack    float64
	lastRung float64

	processed atomic.Int64
	level     atomic.Uint32
	counts    [xsdferrors.NumDegradationLevels]atomic.Int64
}

// newBudget derives a tracker from the context deadline, the target
// count, and the ladder configuration. Returns nil when the ladder is
// disabled.
func newBudget(ctx context.Context, total int, cfg Degradation) *budget {
	if !cfg.Enabled {
		return nil
	}
	b := &budget{total: total, slack: cfg.Slack, lastRung: cfg.LastRungAt}
	if b.slack <= 0 {
		b.slack = DefaultSlack
	}
	if b.lastRung <= 0 {
		b.lastRung = DefaultLastRungAt
	}
	if dl, ok := ctx.Deadline(); ok {
		b.start = faultinject.Now()
		if d := dl.Sub(b.start); d > 0 {
			b.dur = d
		} else {
			// Deadline already expired: every pace check reads as fully
			// consumed, pinning the run to the last rung immediately.
			b.dur = 1
		}
	}
	lvl := xsdferrors.DegradeNone
	if cfg.ConceptOnlyAfter > 0 && total > cfg.ConceptOnlyAfter {
		lvl = xsdferrors.DegradeConceptOnly
	}
	if cfg.FirstSenseAfter > 0 && total > cfg.FirstSenseAfter {
		lvl = xsdferrors.DegradeFirstSense
	}
	b.level.Store(uint32(lvl))
	return b
}

// levelNow reads the current ladder level.
func (b *budget) levelNow() xsdferrors.DegradationLevel {
	return xsdferrors.DegradationLevel(b.level.Load())
}

// raise steps the level up to at least "to" (levels never decrease). A
// request past the last rung — a run still behind pace at first-sense —
// clamps there: the ladder has nowhere further to step.
func (b *budget) raise(to xsdferrors.DegradationLevel) {
	if to > xsdferrors.DegradeFirstSense {
		to = xsdferrors.DegradeFirstSense
	}
	for {
		cur := b.level.Load()
		if uint32(to) <= cur || b.level.CompareAndSwap(cur, uint32(to)) {
			return
		}
	}
}

// next accounts one more target and returns the level to score it at,
// stepping the ladder down when the run is behind its deadline share.
func (b *budget) next() xsdferrors.DegradationLevel {
	done := b.processed.Add(1) - 1
	if b.dur > 0 {
		elapsed := faultinject.Now().Sub(b.start)
		p := float64(elapsed) / float64(b.dur)
		q := float64(done) / float64(b.total)
		switch {
		case p >= b.lastRung:
			b.raise(xsdferrors.DegradeFirstSense)
		case p > rampFraction && p > q+b.slack:
			b.raise(b.levelNow() + 1)
		}
	}
	lvl := b.levelNow()
	b.counts[lvl].Add(1)
	return lvl
}

// report folds the counters into a Report. Unscored is derived from the
// attempt counters, so the accounting is exact even when parallel workers
// abort mid-dispatch.
func (b *budget) report(assigned, total int) Report {
	rep := Report{Assigned: assigned}
	attempted := 0
	for l := range rep.NodesAtLevel {
		n := int(b.counts[l].Load())
		rep.NodesAtLevel[l] = n
		attempted += n
		if n > 0 {
			rep.Level = xsdferrors.DegradationLevel(l)
		}
	}
	rep.Unscored = total - attempted
	return rep
}

// degradeThrough reports whether a Done context should be ridden out at
// the last rung (deadline expiry with the ladder on) rather than aborted
// (explicit cancellation, or ladder off).
func degradeThrough(b *budget, ctx context.Context) bool {
	return b != nil && errors.Is(ctx.Err(), context.DeadlineExceeded)
}

// nodeAt scores one target at the given ladder level and returns the
// winner's Sense.ID and score: first-sense at the last rung, else every
// candidate through scoreTarget, concept-based at the concept-only rung.
func (d *Disambiguator) nodeAt(x *xmltree.Node, lvl xsdferrors.DegradationLevel, t *docTable, s *ctxScratch) (string, float64, bool) {
	method := d.opts.Method
	switch lvl {
	case xsdferrors.DegradeFirstSense:
		if p, ok := t.position(x); ok {
			return d.firstSenseOf(t.lemmas[t.lemOff[p]:t.lemOff[p+1]])
		}
		return d.firstSense(x)
	case xsdferrors.DegradeConceptOnly:
		method = ConceptBased
	}
	a, b, scores, ok := d.scoreTarget(x, t, method, s)
	if !ok {
		return "", 0, false
	}
	c := winner(a, b, scores)
	return d.senseID(c.candidate), c.score, true
}

// firstSense is the ladder's last rung: each token of the label gets its
// most frequent sense (semnet.Senses is frequency-ordered, so index 0 is
// the MFS baseline) with no context scoring at all.
func (d *Disambiguator) firstSense(x *xmltree.Node) (string, float64, bool) {
	var buf [4]int32
	return d.firstSenseOf(d.appendLemmas(buf[:0], x))
}

// firstSenseOf is firstSense over the label ids of the label's tokens (-1
// for unknown ones), returning the Sense.ID of the known tokens' first
// senses. The score is 1 when every known token is monosemous — the same
// certainty full scoring reports — and 0 otherwise, marking an
// evidence-free pick.
func (d *Disambiguator) firstSenseOf(lemmas []int32) (id string, score float64, ok bool) {
	allMono := true
	for _, l := range lemmas {
		if l < 0 {
			continue
		}
		s := d.net.LemmaSensesDense(l)
		c := string(d.conceptID(s[0]))
		if ok {
			c = id + "+" + c
		}
		id, ok = c, true
		if len(s) > 1 {
			allMono = false
		}
	}
	if ok && allMono {
		score = 1
	}
	return id, score, ok
}
