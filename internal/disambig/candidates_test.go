package disambig

import (
	"testing"

	"repro/internal/simmeasure"
	"repro/internal/wordnet"
)

func TestCandidatesRankedAndConsistentWithNode(t *testing.T) {
	tr := parse(t, figure1Doc)
	cast := find(t, tr, "cast")
	d := New(wordnet.Default(), Options{Radius: 2, Method: ConceptBased, SimWeights: simmeasure.EqualWeights()})
	cands := d.Candidates(cast)
	if len(cands) != len(wordnet.Default().Senses("cast")) {
		t.Fatalf("%d candidates, want one per sense", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[i-1].Score {
			t.Fatal("candidates not sorted best-first")
		}
	}
	best, ok := d.Node(cast)
	if !ok || cands[0].ID() != best.ID() {
		t.Errorf("Candidates[0] = %s, Node = %s", cands[0].ID(), best.ID())
	}
}

// TestCandidatesMonosemous: a lone single-sense reading is one candidate
// with score 1 (Assumption 4), as Node assigns it — also for a compound
// label with one known, single-sense token.
func TestCandidatesMonosemous(t *testing.T) {
	d := New(wordnet.Default(), DefaultOptions())
	for _, tc := range []struct{ doc, label string }{
		{`<cast><prologue>x</prologue></cast>`, "prologue"},
		{`<cast><PrologueZzqx>x</PrologueZzqx></cast>`, "prologue zzqx"},
	} {
		x := find(t, parse(t, tc.doc), tc.label)
		cands := d.Candidates(x)
		if len(cands) != 1 || cands[0].Score != 1 {
			t.Errorf("%q: monosemous candidates = %v", tc.label, cands)
			continue
		}
		if best, ok := d.Node(x); !ok || !sameSense(cands[0], best) {
			t.Errorf("%q: Candidates[0] = %v, Node = %v %v", tc.label, cands[0], best, ok)
		}
	}
}

func TestCandidatesUnknown(t *testing.T) {
	tr := parse(t, `<cast><zzqx>x</zzqx></cast>`)
	d := New(wordnet.Default(), DefaultOptions())
	if cands := d.Candidates(find(t, tr, "zzqx")); cands != nil {
		t.Fatalf("unknown label candidates = %v", cands)
	}
}

func TestCandidatesCompoundPairs(t *testing.T) {
	tr := parse(t, `<product><ListPrice>42</ListPrice></product>`)
	d := New(wordnet.Default(), DefaultOptions())
	lp := find(t, tr, "list price")
	cands := d.Candidates(lp)
	net := wordnet.Default()
	want := len(net.Senses("list")) * len(net.Senses("price"))
	if len(cands) != want {
		t.Fatalf("%d pair candidates, want %d", len(cands), want)
	}
	for _, c := range cands {
		if len(c.Concepts) != 2 {
			t.Fatalf("pair candidate has %d concepts", len(c.Concepts))
		}
	}
}
