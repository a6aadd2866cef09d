package xmltree_test

import (
	"bytes"
	"testing"

	"repro/internal/corpus"
	"repro/internal/lingproc"
	"repro/internal/xmltree"
)

// TestCorpusMatchesReference runs the differential oracles on the
// serialized benchmark corpus, corpus.GenerateScaled(s, 4) for s = 1..3,
// with the pipeline's tokenizer, and seed 1 with the default one too.
func TestCorpusMatchesReference(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, d := range corpus.GenerateScaled(seed, 4) {
			var buf bytes.Buffer
			if err := d.Tree.WriteXML(&buf, false); err != nil {
				t.Fatal(err)
			}
			xmltree.CheckMatchesReference(t, buf.Bytes(), lingproc.Tokenize)
			if seed == 1 {
				xmltree.CheckMatchesReference(t, buf.Bytes(), nil)
			}
		}
	}
}
