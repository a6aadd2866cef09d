package ambiguity

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/semnet"
	"repro/internal/xmltree"
)

// testNet has "head" with 4 senses (the maximum), "star" with 2, and
// monosemous "plot".
func testNet(t *testing.T) *semnet.Network {
	t.Helper()
	b := semnet.NewBuilder()
	b.AddConcept("entity.n.01", "exists", 100, "entity")
	b.AddConcept("head.n.01", "body part", 40, "head")
	b.AddConcept("head.n.02", "leader", 30, "head")
	b.AddConcept("head.n.03", "mind", 20, "head")
	b.AddConcept("head.n.04", "top part", 10, "head")
	b.AddConcept("star.n.01", "celestial body", 20, "star")
	b.AddConcept("star.n.02", "performer", 10, "star")
	b.AddConcept("plot.n.01", "story line", 10, "plot")
	for _, id := range []semnet.ConceptID{"head.n.01", "head.n.02", "head.n.03", "head.n.04", "star.n.01", "star.n.02", "plot.n.01"} {
		b.IsA(id, "entity.n.01")
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// testTree: root "head" with children star, star, plot; star has a child.
func testTree(t *testing.T) *xmltree.Tree {
	t.Helper()
	root := &xmltree.Node{Label: "head", Kind: xmltree.Element}
	s1 := &xmltree.Node{Label: "star", Kind: xmltree.Element}
	s2 := &xmltree.Node{Label: "star", Kind: xmltree.Element}
	p := &xmltree.Node{Label: "plot", Kind: xmltree.Element}
	leaf := &xmltree.Node{Label: "plot", Kind: xmltree.Token}
	s1.AddChild(leaf)
	root.AddChild(s1)
	root.AddChild(s2)
	root.AddChild(p)
	return xmltree.New(root)
}

func TestPolysemyFactor(t *testing.T) {
	net := testNet(t)
	// Proposition 1: (senses-1)/(max-1); max = 4 for "head".
	if got := Polysemy("head", net); got != 1 {
		t.Errorf("Amb_Polysemy(head) = %f, want 1", got)
	}
	if got := Polysemy("star", net); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("Amb_Polysemy(star) = %f, want 1/3", got)
	}
	// Assumption 4: monosemous and unknown labels score 0.
	if Polysemy("plot", net) != 0 || Polysemy("nonesuch", net) != 0 {
		t.Error("monosemous/unknown labels must score 0")
	}
}

func TestDepthFactor(t *testing.T) {
	tr := testTree(t)
	net := testNet(t)
	_ = net
	root := tr.Node(0)
	if got := Depth(root, tr); got != 1 {
		t.Errorf("Amb_Depth(root) = %f, want 1 (most ambiguous)", got)
	}
	leaf := tr.Node(2) // token under star
	if leaf.Kind != xmltree.Token {
		t.Fatalf("T[2] = %v", leaf)
	}
	if got := Depth(leaf, tr); got != 0 {
		t.Errorf("Amb_Depth(deepest) = %f, want 0", got)
	}
}

func TestDensityFactor(t *testing.T) {
	tr := testTree(t)
	root := tr.Node(0) // 3 children, 2 distinct labels; max density = 2
	if got := Density(root, tr); got != 0 {
		t.Errorf("Amb_Density(root) = %f, want 0 (max distinct children)", got)
	}
	s2 := tr.Node(3) // star with no children
	if s2.Label != "star" || s2.FanOut() != 0 {
		t.Fatalf("unexpected node %v", s2)
	}
	if got := Density(s2, tr); got != 1 {
		t.Errorf("Amb_Density(leaf) = %f, want 1", got)
	}
}

func TestDegreeDefinition3(t *testing.T) {
	tr := testTree(t)
	net := testNet(t)
	w := EqualWeights()
	root := tr.Node(0)
	// Root "head": polysemy 1, depth factor 1, density factor 0.
	// Amb_Deg = 1·1 / (1·(1-1) + 1·(1-0) + 1) = 1/2.
	if got := Degree(root, tr, net, w); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Amb_Deg(root) = %f, want 0.5", got)
	}
	// All degrees must stay in [0, 1].
	for _, n := range tr.Nodes() {
		d := Degree(n, tr, net, w)
		if d < 0 || d > 1 {
			t.Errorf("Amb_Deg(%s) = %f out of range", n.Label, d)
		}
	}
}

func TestDegreeAssumption4(t *testing.T) {
	tr := testTree(t)
	net := testNet(t)
	p := tr.Node(4)
	if p.Label != "plot" {
		t.Fatalf("T[4] = %v", p)
	}
	if got := Degree(p, tr, net, EqualWeights()); got != 0 {
		t.Errorf("monosemous node degree = %f, want 0 (Assumption 4)", got)
	}
}

func TestDegreeCompoundAverage(t *testing.T) {
	tr := testTree(t)
	net := testNet(t)
	root := tr.Node(0)
	root.Tokens = []string{"head", "plot"} // compound: average of degrees
	single := degreeOfLabel("head", root, tr, net, EqualWeights())
	got := Degree(root, tr, net, EqualWeights())
	if math.Abs(got-single/2) > 1e-9 {
		t.Errorf("compound degree = %f, want %f", got, single/2)
	}
	root.Tokens = nil
}

func TestDegreePolysemyZeroDisables(t *testing.T) {
	tr := testTree(t)
	net := testNet(t)
	w := Weights{Polysemy: 0, Depth: 1, Density: 1}
	for _, n := range tr.Nodes() {
		if Degree(n, tr, net, w) != 0 {
			t.Fatalf("w_Polysemy = 0 must zero all degrees (§3.3)")
		}
	}
}

func TestWeightsClamp(t *testing.T) {
	w := Weights{Polysemy: 2, Depth: -1, Density: 0.5}.Clamp()
	if w.Polysemy != 1 || w.Depth != 0 || w.Density != 0.5 {
		t.Errorf("Clamp = %+v", w)
	}
}

func TestStructDegree(t *testing.T) {
	tr := testTree(t)
	sw := EqualStructWeights()
	root := tr.Node(0)
	// Root: depth 0, fan-out 3 (max), density 2 (max): 0 + 1/3 + 1/3.
	if got := StructDegree(root, tr, sw); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("Struct_Deg(root) = %f, want 2/3", got)
	}
	for _, n := range tr.Nodes() {
		if s := StructDegree(n, tr, sw); s < 0 || s > 1 {
			t.Errorf("Struct_Deg(%s) = %f out of range", n.Label, s)
		}
	}
}

func TestTreeAverages(t *testing.T) {
	tr := testTree(t)
	net := testNet(t)
	avg := TreeAmbiguity(tr, net, EqualWeights())
	if avg <= 0 || avg >= 1 {
		t.Errorf("TreeAmbiguity = %f", avg)
	}
	savg := TreeStructure(tr, EqualStructWeights())
	if savg <= 0 || savg >= 1 {
		t.Errorf("TreeStructure = %f", savg)
	}
	var empty xmltree.Tree
	if TreeAmbiguity(&empty, net, EqualWeights()) != 0 || TreeStructure(&empty, EqualStructWeights()) != 0 {
		t.Error("empty tree averages should be 0")
	}
}

func TestSelect(t *testing.T) {
	tr := testTree(t)
	net := testNet(t)
	all := Select(tr, net, EqualWeights(), 0)
	if len(all) != tr.Len() {
		t.Errorf("threshold 0 selected %d of %d", len(all), tr.Len())
	}
	some := Select(tr, net, EqualWeights(), 0.4)
	if len(some) == 0 || len(some) >= len(all) {
		t.Errorf("threshold 0.4 selected %d", len(some))
	}
	for _, n := range some {
		if Degree(n, tr, net, EqualWeights()) < 0.4 {
			t.Errorf("selected node below threshold: %s", n.Label)
		}
	}
}

// TestSelectMatchesDegrees: Select returns exactly the nodes whose degree
// meets the threshold, in preorder — also for the thresholds <= 0 it
// answers without computing degrees, and for NaN weights, whose NaN
// degrees meet no threshold.
func TestSelectMatchesDegrees(t *testing.T) {
	tr := testTree(t)
	net := testNet(t)
	nan := math.NaN()
	for _, w := range []Weights{EqualWeights(), {}, {Polysemy: 1}, {Polysemy: 2, Depth: -1, Density: math.Inf(1)},
		{Polysemy: nan, Depth: 1, Density: 1}, {Polysemy: 1, Depth: nan, Density: 1}, {Polysemy: 1, Depth: 1, Density: nan}} {
		for _, th := range []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.2, 0.4, 1, nan} {
			var want []*xmltree.Node
			for _, x := range tr.Nodes() {
				if Degree(x, tr, net, w) >= th {
					want = append(want, x)
				}
			}
			got := Select(tr, net, w, th)
			if len(got) != len(want) {
				t.Fatalf("weights %+v threshold %v: selected %d nodes, degrees admit %d", w, th, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("weights %+v threshold %v: target %d is %q, want %q", w, th, i, got[i].Label, want[i].Label)
				}
			}
		}
	}
}

func TestAutoThreshold(t *testing.T) {
	tr := testTree(t)
	net := testNet(t)
	th := AutoThreshold(tr, net, EqualWeights(), 0)
	if th < 0 {
		t.Errorf("AutoThreshold = %f", th)
	}
	// The threshold never exceeds the maximum degree, so selection is
	// never empty.
	if sel := Select(tr, net, EqualWeights(), th); len(sel) == 0 {
		t.Error("auto threshold selected nothing")
	}
	// Huge k is capped at the max degree.
	thBig := AutoThreshold(tr, net, EqualWeights(), 100)
	if sel := Select(tr, net, EqualWeights(), thBig); len(sel) == 0 {
		t.Error("capped auto threshold selected nothing")
	}
}

// TestDegreeMonotoneInPolysemy (Proposition 1): adding senses to a label
// never lowers a node's ambiguity degree, all else equal.
func TestDegreeMonotoneInPolysemy(t *testing.T) {
	mkNet := func(senses int) *semnet.Network {
		b := semnet.NewBuilder()
		b.AddConcept("root.n.01", "g", 1, "rootword")
		// An anchor word keeps Max(senses(SN)) constant at 8.
		for i := 0; i < 8; i++ {
			id := semnet.ConceptID(rune('a'+i)) + ".n.anchor"
			b.AddConcept(id, "g", 1, "anchor")
			b.IsA(id, "root.n.01")
		}
		for i := 0; i < senses; i++ {
			id := semnet.ConceptID(rune('a'+i)) + ".n.word"
			b.AddConcept(id, "g", 1, "word")
			b.IsA(id, "root.n.01")
		}
		n, err := b.Build()
		if err != nil {
			panic(err)
		}
		return n
	}
	tr := xmltree.New(&xmltree.Node{Label: "word", Kind: xmltree.Element})
	f := func(s1, s2 uint8) bool {
		a := 1 + int(s1)%8
		b := 1 + int(s2)%8
		if a > b {
			a, b = b, a
		}
		da := Degree(tr.Node(0), tr, mkNet(a), EqualWeights())
		db := Degree(tr.Node(0), tr, mkNet(b), EqualWeights())
		return da <= db+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
