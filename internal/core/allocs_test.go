// Allocation counts are not meaningful under the race detector: the
// instrumentation itself allocates (and changes sync.Pool behavior), so
// this gate runs only in normal test builds.
//go:build !race

package core

import (
	"strings"
	"testing"
)

// maxWarmAllocsPerNode is the steady-state allocation budget for
// reprocessing a document against warm framework caches. The integer-ID
// scoring core runs the warm path allocation-free (pooled document table
// and context scratch, int-keyed cache hits, memoized preprocessing);
// what remains is per-run bookkeeping — the run value, Result, stage
// timings, the disambiguator — amortized over the document's nodes.
// Measured 2.64 allocs/node; the budget leaves headroom for runtime jitter
// while still catching a per-document table built unpooled (5.86) or any
// per-node allocation creeping back into the hot path (the string-keyed
// core sat in the hundreds per node).
const maxWarmAllocsPerNode = 3.5

// TestWarmSteadyStateAllocsPerNode is the allocation-regression gate for
// the scoring hot path: with caches warm, reprocessing the same document
// must stay within the per-node allocation budget.
func TestWarmSteadyStateAllocsPerNode(t *testing.T) {
	fw := newTestFramework(t)
	res, err := fw.ProcessReader(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tree

	// Warm every cache layer the steady state reads through: similarity
	// memos, concept/pair vectors, LCS, and the preprocessing memos.
	for i := 0; i < 3; i++ {
		if _, err := fw.ProcessTree(tr); err != nil {
			t.Fatal(err)
		}
	}

	allocs := testing.AllocsPerRun(20, func() {
		if _, err := fw.ProcessTree(tr); err != nil {
			t.Fatal(err)
		}
	})
	perNode := allocs / float64(tr.Len())
	t.Logf("warm steady state: %.1f allocs/run over %d nodes = %.2f allocs/node",
		allocs, tr.Len(), perNode)
	if perNode > maxWarmAllocsPerNode {
		t.Errorf("warm reprocess allocates %.2f allocs/node, budget %.1f — "+
			"an allocation crept back into the per-node scoring path",
			perNode, maxWarmAllocsPerNode)
	}
}
