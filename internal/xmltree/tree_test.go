package xmltree

import (
	"strings"
	"testing"
	"testing/quick"
)

// buildFigure6 constructs the paper's Figure 6 tree:
//
//	Films
//	└── Picture
//	    ├── cast
//	    │   ├── star ── Stewart
//	    │   └── star ── Kelly
//	    └── Plot
func buildFigure6(t *testing.T) *Tree {
	t.Helper()
	films := &Node{Raw: "Films", Label: "films", Kind: Element}
	picture := &Node{Raw: "Picture", Label: "picture", Kind: Element}
	cast := &Node{Raw: "cast", Label: "cast", Kind: Element}
	star1 := &Node{Raw: "star", Label: "star", Kind: Element}
	star2 := &Node{Raw: "star", Label: "star", Kind: Element}
	stewart := &Node{Raw: "Stewart", Label: "stewart", Kind: Token}
	kelly := &Node{Raw: "Kelly", Label: "kelly", Kind: Token}
	plot := &Node{Raw: "Plot", Label: "plot", Kind: Element}
	star1.AddChild(stewart)
	star2.AddChild(kelly)
	cast.AddChild(star1)
	cast.AddChild(star2)
	picture.AddChild(cast)
	picture.AddChild(plot)
	films.AddChild(picture)
	return New(films)
}

func TestPreorderIndexing(t *testing.T) {
	tr := buildFigure6(t)
	want := []string{"films", "picture", "cast", "star", "stewart", "star", "kelly", "plot"}
	if tr.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(want))
	}
	for i, label := range want {
		n := tr.Node(i)
		if n == nil || n.Label != label {
			t.Errorf("T[%d] = %v, want label %q", i, n, label)
		}
		if n.Index != i {
			t.Errorf("T[%d].Index = %d", i, n.Index)
		}
	}
}

func TestDepths(t *testing.T) {
	tr := buildFigure6(t)
	wantDepth := map[string]int{"films": 0, "picture": 1, "cast": 2, "plot": 2, "star": 3}
	for _, n := range tr.Nodes() {
		if want, ok := wantDepth[n.Label]; ok && n.Depth != want {
			t.Errorf("depth(%s) = %d, want %d", n.Label, n.Depth, want)
		}
	}
	if tr.MaxDepth() != 4 {
		t.Errorf("MaxDepth = %d, want 4 (token leaves)", tr.MaxDepth())
	}
}

func TestDensityVsFanOut(t *testing.T) {
	tr := buildFigure6(t)
	cast := tr.Node(2)
	if cast.Label != "cast" {
		t.Fatalf("T[2] = %s", cast.Label)
	}
	if got := cast.FanOut(); got != 2 {
		t.Errorf("fan-out(cast) = %d, want 2", got)
	}
	// Two children but both labeled "star": density 1 (Assumption 3).
	if got := cast.Density(); got != 1 {
		t.Errorf("density(cast) = %d, want 1", got)
	}
	picture := tr.Node(1)
	if got := picture.Density(); got != 2 {
		t.Errorf("density(picture) = %d, want 2", got)
	}
}

// TestDensityCountsDistinctLabels: the pairwise count Density uses for
// narrow nodes and the set it uses for wide ones both equal the number of
// distinct child labels.
func TestDensityCountsDistinctLabels(t *testing.T) {
	f := func(labels []uint8) bool {
		n := &Node{}
		distinct := map[string]bool{}
		for _, l := range labels {
			s := string(rune('a' + l%12))
			n.AddChild(&Node{Label: s})
			distinct[s] = true
		}
		return n.Density() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistanceMatchesPaperExample(t *testing.T) {
	tr := buildFigure6(t)
	cast := tr.Node(2)
	kelly := tr.Node(6)
	if kelly.Label != "kelly" {
		t.Fatalf("T[6] = %s", kelly.Label)
	}
	// §3.4.1: "the distance between nodes T[2] and T[6] of labels cast and
	// Kelly respectively is equal to 2."
	if d := Distance(cast, kelly); d != 2 {
		t.Errorf("Dist(cast, kelly) = %d, want 2", d)
	}
	if d := Distance(cast, cast); d != 0 {
		t.Errorf("Dist(x, x) = %d, want 0", d)
	}
	films := tr.Node(0)
	if d := Distance(films, kelly); d != 4 {
		t.Errorf("Dist(films, kelly) = %d, want 4", d)
	}
}

func TestDistanceSymmetry(t *testing.T) {
	tr := buildFigure6(t)
	nodes := tr.Nodes()
	for _, a := range nodes {
		for _, b := range nodes {
			if Distance(a, b) != Distance(b, a) {
				t.Fatalf("Distance not symmetric for %s, %s", a, b)
			}
		}
	}
}

func TestLCA(t *testing.T) {
	tr := buildFigure6(t)
	stewart, kelly := tr.Node(4), tr.Node(6)
	if got := LCA(stewart, kelly); got.Label != "cast" {
		t.Errorf("LCA(stewart, kelly) = %s, want cast", got.Label)
	}
	cast := tr.Node(2)
	if got := LCA(cast, kelly); got != cast {
		t.Errorf("LCA(cast, kelly) = %s, want cast itself", got.Label)
	}
}

func TestPath(t *testing.T) {
	tr := buildFigure6(t)
	kelly := tr.Node(6)
	got := strings.Join(kelly.Path(), "/")
	if got != "films/picture/cast/star/kelly" {
		t.Errorf("Path = %q", got)
	}
}

func TestAncestors(t *testing.T) {
	tr := buildFigure6(t)
	kelly := tr.Node(6)
	anc := kelly.Ancestors()
	if len(anc) != 4 || anc[0].Label != "star" || anc[3].Label != "films" {
		t.Errorf("Ancestors = %v", anc)
	}
}

func TestCloneIsDeepAndPreservesAnnotations(t *testing.T) {
	tr := buildFigure6(t)
	tr.Node(2).Sense = "cast.n.01"
	tr.Node(2).Gold = "cast.n.01"
	cp := tr.Clone()
	if cp.Len() != tr.Len() {
		t.Fatalf("clone Len = %d, want %d", cp.Len(), tr.Len())
	}
	if cp.Node(2).Sense != "cast.n.01" || cp.Node(2).Gold != "cast.n.01" {
		t.Errorf("clone lost annotations: %+v", cp.Node(2))
	}
	cp.Node(2).Sense = "changed"
	if tr.Node(2).Sense != "cast.n.01" {
		t.Error("mutating clone affected original")
	}
	for i := range cp.Nodes() {
		if cp.Node(i) == tr.Node(i) {
			t.Fatalf("clone shares node %d with original", i)
		}
	}
}

func TestReindexAfterMutation(t *testing.T) {
	tr := buildFigure6(t)
	plot := tr.Node(7)
	plot.AddChild(&Node{Raw: "twist", Label: "twist", Kind: Token})
	tr.Reindex()
	if tr.Len() != 9 {
		t.Errorf("Len after mutation = %d, want 9", tr.Len())
	}
	if tr.Node(8).Label != "twist" {
		t.Errorf("T[8] = %s, want twist", tr.Node(8).Label)
	}
}

func TestEmptyTree(t *testing.T) {
	var tr Tree
	tr.Reindex()
	if tr.Len() != 0 || tr.Node(0) != nil || tr.MaxDepth() != 0 {
		t.Error("empty tree should be inert")
	}
}

func TestKindString(t *testing.T) {
	if Element.String() != "element" || Attribute.String() != "attribute" || Token.String() != "token" {
		t.Error("Kind names wrong")
	}
	if Kind(42).String() != "Kind(42)" {
		t.Error("unknown Kind formatting wrong")
	}
}

// randomTree builds a deterministic pseudo-random tree shape from a seed
// vector, for property-based checks.
func randomTree(shape []uint8) *Tree {
	root := &Node{Label: "r", Kind: Element}
	nodes := []*Node{root}
	for i, b := range shape {
		if len(nodes) >= 64 {
			break
		}
		parent := nodes[int(b)%len(nodes)]
		n := &Node{Label: string(rune('a' + i%26)), Kind: Element}
		parent.AddChild(n)
		nodes = append(nodes, n)
	}
	return New(root)
}

// TestDistanceTriangleInequality checks Dist(a,c) <= Dist(a,b) + Dist(b,c)
// on random trees (tree metric property).
func TestDistanceTriangleInequality(t *testing.T) {
	f := func(shape []uint8, ai, bi, ci uint8) bool {
		tr := randomTree(shape)
		n := tr.Len()
		a := tr.Node(int(ai) % n)
		b := tr.Node(int(bi) % n)
		c := tr.Node(int(ci) % n)
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDistanceViaDepthIdentity checks Dist(a,b) =
// depth(a)+depth(b)-2*depth(LCA(a,b)) on random trees.
func TestDistanceViaDepthIdentity(t *testing.T) {
	f := func(shape []uint8, ai, bi uint8) bool {
		tr := randomTree(shape)
		n := tr.Len()
		a := tr.Node(int(ai) % n)
		b := tr.Node(int(bi) % n)
		l := LCA(a, b)
		return Distance(a, b) == a.Depth+b.Depth-2*l.Depth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPreorderParentBeforeChild: preorder index of a parent is always
// smaller than its children's.
func TestPreorderParentBeforeChild(t *testing.T) {
	f := func(shape []uint8) bool {
		tr := randomTree(shape)
		for _, n := range tr.Nodes() {
			for _, c := range n.Children {
				if c.Index <= n.Index {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
