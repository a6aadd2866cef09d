// Allocation counts are not meaningful under the race detector: the
// instrumentation itself allocates (and changes sync.Pool behavior), so
// this gate runs only in normal test builds.
//go:build !race

package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/lingproc"
	"repro/internal/xmltree"
)

// maxWarmAllocsPerNode is the steady-state allocation budget for
// reprocessing a document against warm framework caches. The warm path
// allocates nothing per node: the document table and context scratch are
// pooled, cache hits are int-keyed, preprocessing is memoized, and each
// assigned sense is written as the network's own ConceptID string (a
// compound pair is one concatenation). What remains is per-document
// bookkeeping — the run value, the Result, its stage timings, the
// disambiguator and the target list: 5 allocations over this document's
// 14 nodes, 0.36 allocs/node. Building a Sense per assigned target, as the
// scoring loop once did, read 2.36. The budget leaves headroom for pools
// refilled after a GC while still catching one allocation per target
// creeping back, or the document table built unpooled.
const maxWarmAllocsPerNode = 0.6

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

// maxParseAllocsPerNode is the allocation budget for parsing: the
// streaming scanner reads through a pooled window and builds each tree
// from one node slab and one pointer array, so what remains per document
// is the Tree, the slab, the pointer array, one string per distinct name,
// and per text value its string and the tokenizer's result slice. The
// encoding/xml-based parser made 8.04 allocations per node on this corpus.
const maxParseAllocsPerNode = 2.0

// TestParseAllocsPerNode is the allocation-regression gate for the parse
// layer: parsing the benchmark-shaped corpus (corpus.GenerateScaled(3, 4),
// serialized) the way the pipeline does, with lingproc.Tokenize, must stay
// within the per-node budget.
func TestParseAllocsPerNode(t *testing.T) {
	var docs []string
	for _, d := range corpus.GenerateScaled(3, 4) {
		var buf bytes.Buffer
		if err := d.Tree.WriteXML(&buf, false); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, buf.String())
	}
	opts := xmltree.ParseOptions{IncludeContent: true, Tokenize: lingproc.Tokenize}
	nodes := 0
	for _, doc := range docs {
		tr, err := xmltree.Parse(strings.NewReader(doc), opts)
		if err != nil {
			t.Fatal(err)
		}
		nodes += tr.Len()
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, doc := range docs {
			if _, err := xmltree.Parse(strings.NewReader(doc), opts); err != nil {
				t.Fatal(err)
			}
		}
	})
	perNode := allocs / float64(nodes)
	t.Logf("parse: %.0f allocs over %d documents and %d nodes = %.2f allocs/node",
		allocs, len(docs), nodes, perNode)
	if perNode > maxParseAllocsPerNode {
		t.Errorf("parsing allocates %.2f allocs/node, budget %.1f", perNode, maxParseAllocsPerNode)
	}
}
