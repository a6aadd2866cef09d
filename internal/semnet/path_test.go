package semnet

import "testing"

func TestHypernymPath(t *testing.T) {
	n := buildFigure2(t)
	path := n.HypernymPath("actor.n.01")
	want := []ConceptID{"actor.n.01", "person.n.01", "entity.n.01"}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Errorf("path[%d] = %s, want %s", i, path[i], want[i])
		}
	}
	if got := n.HypernymPath("ghost.n.99"); got != nil {
		t.Errorf("unknown concept path = %v", got)
	}
	// A root's path is itself.
	if got := n.HypernymPath("entity.n.01"); len(got) != 1 {
		t.Errorf("root path = %v", got)
	}
}

func TestPathBetween(t *testing.T) {
	n := buildFigure2(t)
	path, ok := n.PathBetween("actor.n.01", "worker.n.01")
	if !ok {
		t.Fatal("no path")
	}
	want := []ConceptID{"actor.n.01", "person.n.01", "worker.n.01"}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Errorf("path[%d] = %s, want %s", i, path[i], want[i])
		}
	}
	// Identity path.
	if p, ok := n.PathBetween("actor.n.01", "actor.n.01"); !ok || len(p) != 1 {
		t.Errorf("identity path = %v %v", p, ok)
	}
	// Ancestor-descendant path goes straight up.
	if p, ok := n.PathBetween("actor.n.01", "entity.n.01"); !ok || len(p) != 3 {
		t.Errorf("ancestor path = %v %v", p, ok)
	}
	// Disconnected concepts have no path.
	if _, ok := n.PathBetween("hand.n.01", "actor.n.01"); ok {
		t.Error("disconnected concepts should have no path")
	}
}

// TestOutsideIDsHaveNoSubsumer: an id that is not part of the network has
// no LCS and no path, even with itself, as it has no HypernymPath.
func TestOutsideIDsHaveNoSubsumer(t *testing.T) {
	n := buildFigure2(t)
	for _, p := range [][2]ConceptID{
		{"ghost.n.99", "actor.n.01"},
		{"actor.n.01", "ghost.n.99"},
		{"ghost.n.99", "ghost.n.99"},
		{"ghost.n.99", "spook.n.01"},
	} {
		if lcs, ok := n.LCS(p[0], p[1]); ok || lcs != "" {
			t.Errorf("LCS(%s, %s) = %q %v, want none", p[0], p[1], lcs, ok)
		}
		if path, ok := n.PathBetween(p[0], p[1]); ok || path != nil {
			t.Errorf("PathBetween(%s, %s) = %v %v, want none", p[0], p[1], path, ok)
		}
	}
}

func TestPathBetweenOnEmbeddedLexiconShapes(t *testing.T) {
	// Path length must match the edge-count implied by Wu-Palmer depths:
	// len(path) = (depth(a)-depth(lcs)) + (depth(b)-depth(lcs)) + 1.
	n := buildFigure2(t)
	a, b := ConceptID("actor.n.01"), ConceptID("object.n.01")
	path, ok := n.PathBetween(a, b)
	if !ok {
		t.Fatal("no path")
	}
	lcs, _ := n.LCS(a, b)
	wantLen := (n.Depth(a) - n.Depth(lcs)) + (n.Depth(b) - n.Depth(lcs)) + 1
	if len(path) != wantLen {
		t.Errorf("path len %d, want %d (%v)", len(path), wantLen, path)
	}
}
