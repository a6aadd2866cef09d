package core

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/disambig"
	"repro/internal/wordnet"
	"repro/internal/xmltree"
)

// maxWarmSimLookupsPerTarget is the similarity-lookup budget of a warm
// reprocess: CacheStats().SimHits — shared word-memo reads — per
// disambiguation target. Definition 8's inner maximum depends only on
// (candidate sense, context lemma), and the document's word matrix
// answers every repeat of such a pair within the document, so the memo is
// read once per (candidate sense, context lemma) per document. Measured
// 5.0 per target on this corpus; one read per candidate sense and context
// token (no matrix) made 24.7, and probing the pair memo once per sense
// pair made 118.5. The budget leaves headroom for corpus-generator drift
// while still failing if the scoring loop goes back to per-token reads.
const maxWarmSimLookupsPerTarget = 8.0

// TestWarmSimLookupsPerTarget is the lookup-count gate, the companion of
// TestWarmSteadyStateAllocsPerNode: with caches warm, reprocessing the
// corpus under the combined method at radius 2 must stay within the
// per-target lookup budget and miss nothing.
func TestWarmSimLookupsPerTarget(t *testing.T) {
	opts := DefaultOptions()
	opts.Disambiguation.Method = disambig.Combined
	opts.Disambiguation.Radius = 2
	fw, err := New(wordnet.Default(), opts)
	if err != nil {
		t.Fatal(err)
	}
	trees := func() []*xmltree.Tree {
		var out []*xmltree.Tree
		for _, d := range corpus.Generate(1) {
			out = append(out, d.Tree)
		}
		return out
	}
	if _, err := fw.ProcessTrees(trees(), 2); err != nil {
		t.Fatal(err)
	}
	before := fw.CacheStats()
	results, err := fw.ProcessTrees(trees(), 2)
	if err != nil {
		t.Fatal(err)
	}
	after := fw.CacheStats()
	targets := 0
	for _, res := range results {
		targets += res.Targets
	}
	if after.SimMisses != before.SimMisses {
		t.Errorf("warm reprocess missed the similarity cache %d times, want 0",
			after.SimMisses-before.SimMisses)
	}
	perTarget := float64(after.SimHits-before.SimHits) / float64(targets)
	t.Logf("warm reprocess: %d similarity lookups over %d targets = %.1f per target",
		after.SimHits-before.SimHits, targets, perTarget)
	if perTarget > maxWarmSimLookupsPerTarget {
		t.Errorf("warm reprocess makes %.1f similarity lookups per target, budget %.1f — "+
			"the scoring loop reads the memo more than once per (candidate sense, context lemma) per document",
			perTarget, maxWarmSimLookupsPerTarget)
	}
}
