package disambig

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/lingproc"
	"repro/internal/semnet"
	"repro/internal/simmeasure"
	"repro/internal/sphere"
	"repro/internal/wordnet"
	"repro/internal/xmltree"
	"repro/xsdferrors"
)

// parse builds a pre-processed tree over the embedded lexicon.
func parse(t *testing.T, doc string) *xmltree.Tree {
	t.Helper()
	tr, err := xmltree.ParseString(doc, xmltree.ParseOptions{IncludeContent: true, Tokenize: lingproc.Tokenize})
	if err != nil {
		t.Fatal(err)
	}
	lingproc.ProcessTree(tr, wordnet.Default())
	return tr
}

func find(t *testing.T, tr *xmltree.Tree, label string) *xmltree.Node {
	t.Helper()
	for _, n := range tr.Nodes() {
		if n.Label == label {
			return n
		}
	}
	t.Fatalf("node %q not found", label)
	return nil
}

// figure1Doc is the movie document of the paper's Figure 1.a.
const figure1Doc = `<films>
  <picture title="Rear Window">
    <director>Hitchcock</director>
    <year>1954</year>
    <genre>mystery</genre>
    <cast><star>Stewart</star><star>Kelly</star></cast>
    <plot>A wheelchair bound photographer spies on his neighbors</plot>
  </picture>
</films>`

// TestKellyDisambiguation reproduces the paper's flagship example: in the
// Figure 1 context, "Kelly" must resolve to Grace Kelly the actress, not
// Gene Kelly the dancer or Emmett Kelly the clown.
func TestKellyDisambiguation(t *testing.T) {
	tr := parse(t, figure1Doc)
	kelly := find(t, tr, "kelly")
	d := New(wordnet.Default(), Options{Radius: 2, Method: ConceptBased, SimWeights: simmeasure.EqualWeights()})
	s, ok := d.Node(kelly)
	if !ok {
		t.Fatal("kelly not disambiguated")
	}
	if s.ID() != "kelly.n.01" {
		t.Errorf("kelly resolved to %s, want kelly.n.01 (Grace Kelly)", s.ID())
	}
}

// TestCastDisambiguation: "cast" in a movie context is the ensemble of
// actors, not a mold or plaster bandage.
func TestCastDisambiguation(t *testing.T) {
	tr := parse(t, figure1Doc)
	cast := find(t, tr, "cast")
	for _, method := range []Method{ConceptBased, Combined} {
		d := New(wordnet.Default(), Options{Radius: 2, Method: method,
			SimWeights: simmeasure.EqualWeights(), ConceptWeight: 0.5, ContextWeight: 0.5})
		s, ok := d.Node(cast)
		if !ok {
			t.Fatalf("%v: cast not disambiguated", method)
		}
		if s.ID() != "cast.n.01" {
			t.Errorf("%v: cast resolved to %s, want cast.n.01", method, s.ID())
		}
	}
}

func TestMonosemousShortCircuit(t *testing.T) {
	tr := parse(t, `<cast><star>Stewart</star><prologue>x</prologue></cast>`)
	prologue := find(t, tr, "prologue")
	d := New(wordnet.Default(), Options{Radius: 1, Method: ConceptBased, SimWeights: simmeasure.EqualWeights()})
	s, ok := d.Node(prologue)
	if !ok || s.ID() != "prologue.n.01" || s.Score != 1 {
		t.Errorf("monosemous label: got %v %v, want prologue.n.01 score 1 (Assumption 4)", s, ok)
	}
}

func TestUnknownLabelNotAssigned(t *testing.T) {
	tr := parse(t, `<cast><zzqx>foo</zzqx></cast>`)
	unk := find(t, tr, "zzqx")
	d := New(wordnet.Default(), DefaultOptions())
	if _, ok := d.Node(unk); ok {
		t.Error("unknown label should not receive a sense")
	}
}

// TestCompoundSingleConcept: "FirstName" joins to the single concept
// first_name.n.01 (§3.2 case 2a) and is assigned directly.
func TestCompoundSingleConcept(t *testing.T) {
	tr := parse(t, `<actor><FirstName>Grace</FirstName><LastName>Kelly</LastName></actor>`)
	fn := find(t, tr, "first name")
	d := New(wordnet.Default(), DefaultOptions())
	s, ok := d.Node(fn)
	if !ok || s.ID() != "first_name.n.01" {
		t.Errorf("FirstName -> %v %v, want first_name.n.01", s, ok)
	}
}

// TestCompoundPair: a compound with no single concept gets a sense pair
// (Eq. 10) whose ID joins both concepts.
func TestCompoundPair(t *testing.T) {
	tr := parse(t, `<product><ListPrice currency="usd">42</ListPrice><item>book</item></product>`)
	lp := find(t, tr, "list price")
	if len(lp.Tokens) != 2 {
		t.Fatalf("tokens = %v", lp.Tokens)
	}
	d := New(wordnet.Default(), Options{Radius: 2, Method: ConceptBased, SimWeights: simmeasure.EqualWeights()})
	s, ok := d.Node(lp)
	if !ok {
		t.Fatal("compound not disambiguated")
	}
	parts := strings.Split(s.ID(), "+")
	if len(parts) != 2 {
		t.Fatalf("compound sense id = %q, want two concepts", s.ID())
	}
	if !strings.HasPrefix(parts[0], "list.") || !strings.HasPrefix(parts[1], "price.") {
		t.Errorf("compound parts = %v", parts)
	}
}

// TestCompoundFallbackSingleToken: when only one token of a compound is
// known ("initPage"), candidates come from that token alone.
func TestCompoundFallbackSingleToken(t *testing.T) {
	tr := parse(t, `<article><initPage>12</initPage><title>database design</title></article>`)
	ip := find(t, tr, "init page")
	d := New(wordnet.Default(), Options{Radius: 2, Method: ConceptBased, SimWeights: simmeasure.EqualWeights()})
	s, ok := d.Node(ip)
	if !ok {
		t.Fatal("fallback compound not disambiguated")
	}
	if !strings.HasPrefix(s.ID(), "page.") || strings.Contains(s.ID(), "+") {
		t.Errorf("fallback sense = %s, want single page.* concept", s.ID())
	}
}

func TestContextScoreMatchesCosine(t *testing.T) {
	tr := parse(t, figure1Doc)
	cast := find(t, tr, "cast")
	net := wordnet.Default()
	d := New(net, Options{Radius: 1, Method: ContextBased, SimWeights: simmeasure.EqualWeights()})
	dc, _ := net.Dense("cast.n.01")
	var s sphere.ConceptScratch
	want := sphere.Cosine(sphere.ContextVector(cast, 1, net), sphere.ConceptVectorInto(net, dc, 1, &s))
	found := false
	for _, c := range d.Candidates(cast) {
		if c.ID() != "cast.n.01" {
			continue
		}
		found = true
		if diff := c.Score - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("context score = %.15f, want %.15f", c.Score, want)
		}
	}
	if !found {
		t.Fatal("cast.n.01 is not a candidate of cast")
	}
}

func TestCombinedIsWeightedMix(t *testing.T) {
	tr := parse(t, figure1Doc)
	cast := find(t, tr, "cast")
	net := wordnet.Default()
	conceptOnly := New(net, Options{Radius: 1, Method: Combined, SimWeights: simmeasure.EqualWeights(),
		ConceptWeight: 1, ContextWeight: 0})
	pure := New(net, Options{Radius: 1, Method: ConceptBased, SimWeights: simmeasure.EqualWeights()})
	s1, _ := conceptOnly.Node(cast)
	s2, _ := pure.Node(cast)
	if s1.ID() != s2.ID() || s1.Score != s2.Score {
		t.Errorf("combined with w_context=0 differs from concept-based: %v vs %v", s1, s2)
	}
}

func TestScoresInUnitRange(t *testing.T) {
	tr := parse(t, figure1Doc)
	net := wordnet.Default()
	for _, method := range []Method{ConceptBased, ContextBased, Combined} {
		d := New(net, Options{Radius: 2, Method: method, SimWeights: simmeasure.EqualWeights(),
			ConceptWeight: 0.5, ContextWeight: 0.5})
		for _, n := range tr.Nodes() {
			if s, ok := d.Node(n); ok {
				if s.Score < 0 || s.Score > 1 {
					t.Errorf("%v: score(%s) = %f out of range", method, n.Label, s.Score)
				}
			}
		}
	}
}

func TestApplyAnnotatesInPlace(t *testing.T) {
	tr := parse(t, figure1Doc)
	d := New(wordnet.Default(), Options{Radius: 1, Method: ConceptBased, SimWeights: simmeasure.EqualWeights()})
	n := d.Apply(tr.Nodes())
	if n == 0 {
		t.Fatal("nothing assigned")
	}
	annotated := 0
	for _, x := range tr.Nodes() {
		if x.Sense != "" {
			annotated++
		}
	}
	if annotated != n {
		t.Errorf("Apply reported %d but %d nodes carry senses", n, annotated)
	}
	// Numeric token "1954" has no senses and must stay untouched.
	if y := find(t, tr, "1954"); y.Sense != "" {
		t.Errorf("numeric token got sense %s", y.Sense)
	}
}

func TestDeterminism(t *testing.T) {
	net := wordnet.Default()
	for i := 0; i < 3; i++ {
		tr := parse(t, figure1Doc)
		d := New(net, Options{Radius: 2, Method: Combined, SimWeights: simmeasure.EqualWeights(),
			ConceptWeight: 0.6, ContextWeight: 0.4})
		d.Apply(tr.Nodes())
		var sb strings.Builder
		for _, n := range tr.Nodes() {
			sb.WriteString(n.Sense)
			sb.WriteByte('|')
		}
		if i == 0 {
			deterministicBaseline = sb.String()
		} else if sb.String() != deterministicBaseline {
			t.Fatal("disambiguation not deterministic across runs")
		}
	}
}

var deterministicBaseline string

func TestMethodString(t *testing.T) {
	if ConceptBased.String() != "concept-based" || ContextBased.String() != "context-based" ||
		Combined.String() != "combined" {
		t.Error("method names wrong")
	}
	if !strings.Contains(Method(9).String(), "9") {
		t.Error("unknown method formatting")
	}
}

func TestSenseID(t *testing.T) {
	s := Sense{Concepts: []semnet.ConceptID{"a.n.01", "b.n.02"}}
	if s.ID() != "a.n.01+b.n.02" {
		t.Errorf("compound ID = %s", s.ID())
	}
	if (Sense{Concepts: []semnet.ConceptID{"a.n.01"}}).ID() != "a.n.01" {
		t.Error("single ID wrong")
	}
}

func TestDefaultOptionsRadiusFloor(t *testing.T) {
	d := New(wordnet.Default(), Options{Radius: 0})
	if d.Options().Radius != 1 {
		t.Errorf("radius floor = %d, want 1", d.Options().Radius)
	}
}

func TestApplyContextCancellation(t *testing.T) {
	tr := parse(t, `<films><picture><star>Kelly</star><genre>mystery</genre></picture></films>`)
	d := New(wordnet.Default(), DefaultOptions())

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: no node may be disambiguated
	assigned, err := d.ApplyContext(ctx, tr.Nodes())
	if !errors.Is(err, xsdferrors.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if assigned != 0 {
		t.Errorf("canceled run assigned %d senses", assigned)
	}
	for _, n := range tr.Nodes() {
		if n.Sense != "" {
			t.Errorf("node %s disambiguated after cancellation", n.Label)
		}
	}

	// The hook seam fires per node and the live context lets work proceed.
	var visited int
	opts := DefaultOptions()
	opts.NodeHook = func(*xmltree.Node) { visited++ }
	d2 := New(wordnet.Default(), opts)
	assigned, err = d2.ApplyContext(context.Background(), tr.Nodes())
	if err != nil || assigned == 0 {
		t.Fatalf("live context: assigned=%d err=%v", assigned, err)
	}
	if visited != tr.Len() {
		t.Errorf("hook fired %d times, want %d", visited, tr.Len())
	}
}
