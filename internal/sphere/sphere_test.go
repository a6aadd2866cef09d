package sphere

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/semnet"
	"repro/internal/xmltree"
)

// figure6 builds the tree of the paper's Figure 6 and returns it with node
// T[2] ("cast"), the example's sphere center.
func figure6(t *testing.T) (*xmltree.Tree, *xmltree.Node) {
	t.Helper()
	doc := `<Films><Picture><Cast><Star>Stewart</Star><Star>Kelly</Star></Cast><Plot/></Picture></Films>`
	tr, err := xmltree.ParseString(doc, xmltree.DefaultParseOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tr.Nodes() { // lower-case labels like lingproc would
		n.Label = lower(n.Raw)
	}
	cast := tr.Node(2)
	if cast.Label != "cast" {
		t.Fatalf("T[2] = %s", cast.Label)
	}
	return tr, cast
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}

func TestRing1MatchesPaper(t *testing.T) {
	_, cast := figure6(t)
	// §3.4.1: R1(T[2]) = {picture, star, star}.
	ring := Ring(cast, 1)
	if len(ring) != 3 {
		t.Fatalf("|R1| = %d, want 3", len(ring))
	}
	labels := map[string]int{}
	for _, n := range ring {
		labels[n.Label]++
	}
	if labels["picture"] != 1 || labels["star"] != 2 {
		t.Errorf("R1 labels = %v", labels)
	}
}

func TestSphere2MatchesPaper(t *testing.T) {
	_, cast := figure6(t)
	// S2(T[2]) = center + R1{picture, star, star} + R2{films, stewart,
	// kelly, plot}.
	members := Sphere(cast, 2)
	if len(members) != 8 {
		t.Fatalf("|S2| = %d, want 8 (center included)", len(members))
	}
	distOf := map[string]int{}
	for _, m := range members {
		distOf[m.Node.Label] = m.Dist
	}
	want := map[string]int{"cast": 0, "picture": 1, "star": 1, "films": 2, "stewart": 2, "kelly": 2, "plot": 2}
	for l, d := range want {
		if distOf[l] != d {
			t.Errorf("dist(%s) = %d, want %d", l, distOf[l], d)
		}
	}
}

func TestSphereOrderingDeterministic(t *testing.T) {
	_, cast := figure6(t)
	a := Sphere(cast, 2)
	b := Sphere(cast, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Sphere not deterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Dist < a[i-1].Dist {
			t.Fatal("Sphere not ordered by distance")
		}
	}
}

func TestStructFactor(t *testing.T) {
	// Eq. 7: Struct = 1 - dist/(d+1).
	if got := Struct(0, 1); got != 1 {
		t.Errorf("Struct(0,1) = %f", got)
	}
	if got := Struct(1, 1); got != 0.5 {
		t.Errorf("Struct(1,1) = %f", got)
	}
	if got := Struct(2, 2); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("Struct(2,2) = %f", got)
	}
	// Farthest ring keeps a non-null weight (the paper's d+1 denominator).
	if Struct(3, 3) <= 0 {
		t.Error("farthest ring weight must stay positive")
	}
}

// TestContextVectorFigure7 reproduces V1(T[2]) of Figure 7 exactly:
// cast 0.4, picture 0.2, star 0.4.
func TestContextVectorFigure7(t *testing.T) {
	_, cast := figure6(t)
	voc := NewDict(nil)
	v := ContextVector(cast, 1, voc)
	want := map[string]float64{"cast": 0.4, "picture": 0.2, "star": 0.4}
	if v.Len() != len(want) {
		t.Fatalf("V1 dims = %v", v)
	}
	for l, w := range want {
		if math.Abs(v.At(voc, l)-w) > 1e-9 {
			t.Errorf("V1[%s] = %.4f, want %.4f", l, v.At(voc, l), w)
		}
	}
}

// TestContextVectorRadius2 checks the d=2 vector under the center-inclusive
// convention (|S2| = 8): weights 2·Freq/9.
func TestContextVectorRadius2(t *testing.T) {
	_, cast := figure6(t)
	voc := NewDict(nil)
	v := ContextVector(cast, 2, voc)
	want := map[string]float64{
		"cast":    2.0 / 9,           // Struct(0,2)=1
		"picture": 2 * (2.0 / 3) / 9, // Struct(1,2)=2/3
		"star":    2 * (4.0 / 3) / 9, // two at Struct 2/3
		"films":   2 * (1.0 / 3) / 9,
		"stewart": 2 * (1.0 / 3) / 9,
		"kelly":   2 * (1.0 / 3) / 9,
		"plot":    2 * (1.0 / 3) / 9,
	}
	for l, w := range want {
		if math.Abs(v.At(voc, l)-w) > 1e-9 {
			t.Errorf("V2[%s] = %.4f, want %.4f", l, v.At(voc, l), w)
		}
	}
}

// TestAssumption5And6 checks the two context-vector assumptions: closer
// nodes weigh more (5); repeated labels weigh more (6).
func TestAssumption5And6(t *testing.T) {
	_, cast := figure6(t)
	voc := NewDict(nil)
	v := ContextVector(cast, 2, voc)
	if !(v.At(voc, "star") > v.At(voc, "plot")) {
		t.Error("Assumption 5 violated: closer star should outweigh farther plot")
	}
	if !(v.At(voc, "star") > v.At(voc, "picture")) {
		t.Error("Assumption 6 violated: repeated star should outweigh single picture")
	}
}

func TestWeightsInUnitRange(t *testing.T) {
	f := func(shape []uint8, center uint8, d uint8) bool {
		tr := randomTree(shape)
		x := tr.Node(int(center) % tr.Len())
		radius := 1 + int(d)%4
		for _, w := range ContextVector(x, radius, NewDict(nil)).Weights {
			if w <= 0 || w > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSphereSizeMonotone: the sphere never shrinks as d grows and is
// bounded by the tree size.
func TestSphereSizeMonotone(t *testing.T) {
	f := func(shape []uint8, center uint8) bool {
		tr := randomTree(shape)
		x := tr.Node(int(center) % tr.Len())
		prev := 0
		for d := 0; d <= 6; d++ {
			n := len(Sphere(x, d))
			if n < prev || n > tr.Len() {
				return false
			}
			prev = n
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func randomTree(shape []uint8) *xmltree.Tree {
	root := &xmltree.Node{Label: "r", Kind: xmltree.Element}
	nodes := []*xmltree.Node{root}
	for i, b := range shape {
		if len(nodes) >= 48 {
			break
		}
		parent := nodes[int(b)%len(nodes)]
		n := &xmltree.Node{Label: string(rune('a' + i%8)), Kind: xmltree.Element}
		parent.AddChild(n)
		nodes = append(nodes, n)
	}
	return xmltree.New(root)
}

// ---- concept spheres ----

func miniNet(t *testing.T) *semnet.Network {
	t.Helper()
	b := semnet.NewBuilder()
	b.AddConcept("a.n.01", "alpha gloss", 10, "alpha")
	b.AddConcept("b.n.01", "beta gloss", 8, "beta")
	b.AddConcept("c.n.01", "gamma gloss", 6, "gamma")
	b.AddConcept("d.n.01", "delta gloss", 4, "delta")
	b.IsA("b.n.01", "a.n.01")
	b.IsA("c.n.01", "b.n.01")
	b.PartOf("d.n.01", "b.n.01")
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// conceptVector builds V_d of the named concept as an owned vector.
func conceptVector(t *testing.T, n *semnet.Network, id semnet.ConceptID, d int) Vector {
	t.Helper()
	dc, ok := n.Dense(id)
	if !ok {
		t.Fatalf("no dense id for %s", id)
	}
	var s ConceptScratch
	return ConceptVectorInto(n, dc, d, &s).Clone()
}

// combinedConceptVector builds V_d of the named pair as an owned vector.
func combinedConceptVector(t *testing.T, n *semnet.Network, p, q semnet.ConceptID, d int) Vector {
	t.Helper()
	dp, okp := n.Dense(p)
	dq, okq := n.Dense(q)
	if !okp || !okq {
		t.Fatalf("no dense ids for %s, %s", p, q)
	}
	var s ConceptScratch
	return CombinedConceptVectorInto(n, dp, dq, d, &s).Clone()
}

// TestConceptSphere: the concept sphere S_d(c) a concept vector is built
// from grows along all relation kinds, one label dimension per member in
// the mini network.
func TestConceptSphere(t *testing.T) {
	n := miniNet(t)
	if v := conceptVector(t, n, "c.n.01", 1); v.Len() != 2 { // center + b
		t.Fatalf("|S1(c)| = %d: %v", v.Len(), v)
	}
	if v := conceptVector(t, n, "c.n.01", 2); v.Len() != 4 { // + a, d through b
		t.Fatalf("|S2(c)| = %d: %v", v.Len(), v)
	}
}

func TestConceptVectorDimensions(t *testing.T) {
	n := miniNet(t)
	v := conceptVector(t, n, "c.n.01", 2)
	for _, dim := range []string{"gamma", "beta", "alpha", "delta"} {
		if v.At(n, dim) <= 0 {
			t.Errorf("dimension %q missing: %v", dim, v)
		}
	}
	// Closer concept outweighs farther.
	if !(v.At(n, "beta") > v.At(n, "alpha")) {
		t.Error("distance weighting violated in concept vector")
	}
}

func TestCombinedConceptVector(t *testing.T) {
	n := miniNet(t)
	v := combinedConceptVector(t, n, "c.n.01", "d.n.01", 1)
	// Union of both 1-spheres: c, b (from c), d, b (from d) -> dims
	// gamma, beta, delta.
	for _, dim := range []string{"gamma", "beta", "delta"} {
		if v.At(n, dim) <= 0 {
			t.Errorf("dimension %q missing: %v", dim, v)
		}
	}
	// The overlapping member (b) keeps its minimal distance.
	single := conceptVector(t, n, "c.n.01", 1)
	if v.At(n, "beta") <= 0 || single.At(n, "beta") <= 0 {
		t.Error("expected beta in both vectors")
	}
}
