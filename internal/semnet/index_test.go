package semnet

import (
	"fmt"
	"strings"
	"testing"
)

// buildChain builds a network whose concepts are the given ids in order,
// linked into a hypernym chain (each concept IsA its predecessor), so
// Build always succeeds on any duplicate-free id list.
func buildChain(tb testing.TB, ids []ConceptID) *Network {
	tb.Helper()
	b := NewBuilder()
	for i, id := range ids {
		b.AddConcept(id, "gloss of "+string(id), float64(i+1), "lemma_"+string(id))
		if i > 0 {
			b.IsA(id, ids[i-1])
		}
	}
	net, err := b.Build()
	if err != nil {
		tb.Fatalf("Build(%d concepts): %v", len(ids), err)
	}
	return net
}

// checkIndexBijection asserts the ConceptIndex invariants: every concept
// has exactly one dense id in [0, Len), dense ids follow insertion order,
// both directions round-trip, and out-of-universe lookups miss.
func checkIndexBijection(tb testing.TB, net *Network) {
	tb.Helper()
	ix := net.Index()
	order := net.Concepts()
	if ix.Len() != len(order) {
		tb.Fatalf("index Len = %d, want %d concepts", ix.Len(), len(order))
	}
	seen := make(map[DenseID]ConceptID, len(order))
	for i, id := range order {
		d, ok := net.Dense(id)
		if !ok {
			tb.Fatalf("Dense(%q) missing", id)
		}
		if d != DenseID(i) {
			tb.Fatalf("Dense(%q) = %d, want insertion position %d", id, d, i)
		}
		if prev, dup := seen[d]; dup {
			tb.Fatalf("dense id %d assigned to both %q and %q", d, prev, id)
		}
		seen[d] = id
		back, ok := net.ConceptAt(d)
		if !ok || back != id {
			tb.Fatalf("ConceptAt(Dense(%q)) = %q, %v", id, back, ok)
		}
	}
	if _, ok := net.ConceptAt(-1); ok {
		tb.Error("ConceptAt(-1) resolved")
	}
	if _, ok := net.ConceptAt(DenseID(len(order))); ok {
		tb.Errorf("ConceptAt(%d) resolved past the universe", len(order))
	}
	if net.Concept("__not_a_concept__") == nil {
		if _, ok := net.Dense("__not_a_concept__"); ok {
			tb.Error("Dense of an unknown ConceptID resolved")
		}
	}
}

func TestConceptIndexBijection(t *testing.T) {
	ids := make([]ConceptID, 100)
	for i := range ids {
		ids[i] = ConceptID(fmt.Sprintf("c%03d.n.01", i))
	}
	checkIndexBijection(t, buildChain(t, ids))
}

// FuzzConceptIndexRoundTrip drives the bijection check over arbitrary
// comma-separated id lists, including across a rebuild with suffix-tagged
// ids: the second network's index must resolve only tagged ids and the
// first only untagged ones — dense ids never leak between epochs.
func FuzzConceptIndexRoundTrip(f *testing.F) {
	f.Add("a.n.01,b.n.01,c.n.01")
	f.Add("kelly.n.01")
	f.Add("x,,x,y,\x00,verylongconceptidentifierthatkeepsgoing.n.02")
	f.Fuzz(func(t *testing.T, raw string) {
		var ids []ConceptID
		dedup := make(map[ConceptID]bool)
		for _, part := range strings.Split(raw, ",") {
			id := ConceptID(part)
			if part == "" || dedup[id] {
				continue
			}
			dedup[id] = true
			ids = append(ids, id)
			if len(ids) == 64 {
				break
			}
		}
		if len(ids) == 0 {
			t.Skip("no usable ids in input")
		}
		net := buildChain(t, ids)
		checkIndexBijection(t, net)

		// Rebuild with every id suffix-tagged: a fresh epoch, a fresh
		// index. Untagged ids must miss in the new network and tagged
		// ids in the old — same strings, disjoint universes.
		tagged := make([]ConceptID, len(ids))
		taggedSet := make(map[ConceptID]bool, len(ids))
		for i, id := range ids {
			tagged[i] = id + "#v2"
			taggedSet[tagged[i]] = true
		}
		net2 := buildChain(t, tagged)
		checkIndexBijection(t, net2)
		for i, id := range ids {
			// An adversarial input can contain ids that already carry
			// the tag (so the two universes overlap on that string);
			// the disjointness claims only apply outside the overlap.
			if !taggedSet[id] {
				if _, ok := net2.Dense(id); ok {
					t.Errorf("untagged %q leaked into the tagged network's index", id)
				}
			}
			if !dedup[tagged[i]] {
				if _, ok := net.Dense(tagged[i]); ok {
					t.Errorf("tagged %q leaked into the untagged network's index", tagged[i])
				}
			}
		}
	})
}

// TestLemmaDenseMatchesSenses: LemmaDense resolves a word to its label id
// case-insensitively, as Senses does, and the label-indexed sense lists
// reproduce Senses in frequency order; unknown words resolve to -1.
func TestLemmaDenseMatchesSenses(t *testing.T) {
	b := NewBuilder()
	b.AddConcept("star.n.01", "a celestial body", 5, "star")
	b.AddConcept("star.n.02", "a principal performer", 9, "star", "lead")
	b.AddConcept("lead.n.01", "a soft heavy metal", 2, "lead")
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, lemma := range net.Lemmas() {
		l := net.LemmaDense(strings.ToUpper(lemma))
		if want, ok := net.LabelID(lemma); !ok || l != want {
			t.Fatalf("LemmaDense(%q) = %d, want label id %d", strings.ToUpper(lemma), l, want)
		}
		senses := net.Senses(lemma)
		dense := net.LemmaSensesDense(l)
		if len(dense) != len(senses) {
			t.Fatalf("%q: %d dense senses, want %d", lemma, len(dense), len(senses))
		}
		for i, d := range dense {
			if id, _ := net.ConceptAt(d); id != senses[i] {
				t.Errorf("%q sense %d = %q, want %q", lemma, i, id, senses[i])
			}
		}
		if got := net.SensesDense(lemma); fmt.Sprint(got) != fmt.Sprint(dense) {
			t.Errorf("SensesDense(%q) = %v, want %v", lemma, got, dense)
		}
	}
	if l := net.LemmaDense("comet"); l != -1 {
		t.Errorf("LemmaDense(unknown) = %d, want -1", l)
	}
	if s := net.SensesDense("comet"); s != nil {
		t.Errorf("SensesDense(unknown) = %v, want nil", s)
	}
}
