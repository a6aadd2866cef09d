package wordnet

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/semnet"
)

func TestDefaultBuildsAndIsShared(t *testing.T) {
	a := Default()
	b := Default()
	if a != b {
		t.Error("Default should return a shared instance")
	}
	if a.Len() < 500 {
		t.Errorf("embedded lexicon has %d concepts, expected several hundred", a.Len())
	}
}

func TestHeadIsPolysemyAnchor(t *testing.T) {
	n := Default()
	if got := n.PolysemyOf("head"); got != 20 {
		t.Errorf("polysemy(head) = %d, want 20", got)
	}
	if n.MaxPolysemy() != 20 {
		t.Errorf("MaxPolysemy = %d: some word outranks the designed anchor", n.MaxPolysemy())
	}
}

func TestPaperVocabularyCovered(t *testing.T) {
	n := Default()
	// Every tag of the Figure 1 documents must be resolvable.
	words := []string{"film", "picture", "director", "year", "genre", "cast",
		"star", "plot", "movie", "name", "actor", "first name", "last name",
		"kelly", "stewart", "hitchcock", "title", "mystery",
		// dataset tags
		"play", "act", "scene", "speech", "speaker", "line", "persona",
		"prologue", "epilogue", "stagedir", "product", "item", "brand",
		"price", "review", "rating", "customer", "stock", "shipping",
		"proceedings", "article", "author", "volume", "number", "conference",
		"page", "book", "publisher", "bib", "catalog", "cd", "artist",
		"country", "company", "food", "menu", "calories", "description",
		"plant", "botanical", "zone", "light", "availability", "personnel",
		"person", "family", "given", "email", "address", "street", "city",
		"state", "zip", "club", "member", "age", "hobby", "president"}
	for _, w := range words {
		if !n.HasLemma(w) {
			t.Errorf("lemma %q missing from embedded lexicon", w)
		}
	}
}

func TestPolysemousWordsHaveMultipleSenses(t *testing.T) {
	n := Default()
	wantAtLeast := map[string]int{
		"line": 10, "play": 8, "state": 7, "star": 6, "cast": 5,
		"picture": 5, "title": 6, "family": 6, "club": 5, "company": 6,
		"stock": 6, "light": 7,
	}
	for w, min := range wantAtLeast {
		if got := n.PolysemyOf(w); got < min {
			t.Errorf("polysemy(%q) = %d, want >= %d", w, got, min)
		}
	}
}

func TestSingleHierarchyRoot(t *testing.T) {
	n := Default()
	roots := 0
	for _, id := range n.Concepts() {
		if len(n.Hypernyms(id)) == 0 {
			roots++
			if id != "entity.n.01" {
				t.Errorf("unexpected hierarchy root %s", id)
			}
		}
	}
	if roots != 1 {
		t.Errorf("%d roots, want 1 (entity)", roots)
	}
}

func TestEveryConceptHasGloss(t *testing.T) {
	n := Default()
	for _, id := range n.Concepts() {
		c := n.Concept(id)
		if strings.TrimSpace(c.Gloss) == "" {
			t.Errorf("%s has no gloss", id)
		}
		if len(c.Lemmas) == 0 {
			t.Errorf("%s has no lemmas", id)
		}
		if c.Freq <= 0 {
			t.Errorf("%s has non-positive frequency", id)
		}
	}
}

func TestDominantSensesOrderedFirst(t *testing.T) {
	n := Default()
	// The first sense of these lemmas must be the intended dominant one.
	want := map[string]semnet.ConceptID{
		"movie": "picture.n.02",
		"cast":  "cast.n.01",
		"book":  "book.n.01",
		"price": "price.n.01",
		"head":  "head.n.01",
	}
	for lemma, first := range want {
		if got := n.Senses(lemma)[0]; got != first {
			t.Errorf("Senses(%q)[0] = %s, want %s", lemma, got, first)
		}
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	cfg := DefaultGenerateConfig(11)
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() || a.Len() != cfg.Concepts {
		t.Fatalf("sizes: %d, %d, want %d", a.Len(), b.Len(), cfg.Concepts)
	}
	for i, id := range a.Concepts() {
		if b.Concepts()[i] != id {
			t.Fatal("concept order differs between runs")
		}
		if a.Concept(id).Gloss != b.Concept(id).Gloss {
			t.Fatal("glosses differ between runs")
		}
	}
	if a.MaxDepth() < 3 {
		t.Errorf("generated hierarchy too flat: depth %d", a.MaxDepth())
	}
	if a.MaxPolysemy() < 2 {
		t.Error("generated network has no polysemy")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenerateConfig{Concepts: 1, Lemmas: 5}); err == nil {
		t.Error("expected error for too few concepts")
	}
	if _, err := Generate(GenerateConfig{Concepts: 5, Lemmas: 1}); err == nil {
		t.Error("expected error for too few lemmas")
	}
}

// TestGenerateTwoLemmas: the smallest vocabulary Generate accepts still
// builds a network. Each concept draws one to three distinct lemmas; a
// draw of three from two never ended before the draw was capped, so the
// call runs on a goroutine and the test fails instead of hanging.
func TestGenerateTwoLemmas(t *testing.T) {
	cfg := GenerateConfig{Seed: 5, Concepts: 300, Lemmas: 2, MaxBranch: 50, PartEvery: 2}
	done := make(chan error, 1)
	go func() {
		n, err := Generate(cfg)
		if err == nil && n.Len() != cfg.Concepts {
			err = fmt.Errorf("Len = %d, want %d", n.Len(), cfg.Concepts)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Generate with 2 lemmas did not return within 30s")
	}
}

// TestGenerateExportUnchanged pins the export of a default generated
// network: capping the lemma draw at the vocabulary size leaves networks
// of three or more lemmas byte for byte as they were.
func TestGenerateExportUnchanged(t *testing.T) {
	n, err := Generate(DefaultGenerateConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	const want = "093eea86b40d504eaea697081d169c615ab60f03acedf4333731d32cf47fdec2"
	if got := n.Checksum(); got != want {
		t.Errorf("sha256 of the export of DefaultGenerateConfig(1): %s, want %s", got, want)
	}
}

func TestGenerateScales(t *testing.T) {
	n, err := Generate(GenerateConfig{Seed: 3, Concepts: 5000, Lemmas: 900, MaxBranch: 8, PartEvery: 11})
	if err != nil {
		t.Fatal(err)
	}
	if n.Len() != 5000 {
		t.Errorf("Len = %d", n.Len())
	}
	// IC must be finite everywhere.
	for _, id := range n.Concepts()[:100] {
		if v := n.IC(id); v < 0 {
			t.Errorf("IC(%s) = %f", id, v)
		}
	}
}

// TestEmbeddedLexiconCodecRoundTrip saves the full embedded lexicon through
// the semnet interchange format and verifies the reloaded network preserves
// every derived quantity the algorithms depend on.
func TestEmbeddedLexiconCodecRoundTrip(t *testing.T) {
	orig := Default()
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := semnet.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != orig.Len() {
		t.Fatalf("Len %d vs %d", loaded.Len(), orig.Len())
	}
	if loaded.MaxPolysemy() != orig.MaxPolysemy() || loaded.MaxDepth() != orig.MaxDepth() {
		t.Errorf("derived maxima differ: polysemy %d/%d depth %d/%d",
			loaded.MaxPolysemy(), orig.MaxPolysemy(), loaded.MaxDepth(), orig.MaxDepth())
	}
	for _, id := range orig.Concepts()[:200] {
		if loaded.Depth(id) != orig.Depth(id) {
			t.Fatalf("depth(%s) differs", id)
		}
		if got, want := loaded.IC(id), orig.IC(id); got < want-1e-9 || got > want+1e-9 {
			t.Fatalf("IC(%s) %f vs %f", id, got, want)
		}
	}
	for _, lemma := range []string{"star", "cast", "head", "first name"} {
		a, b := orig.Senses(lemma), loaded.Senses(lemma)
		if len(a) != len(b) {
			t.Fatalf("senses(%s) %d vs %d", lemma, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("senses(%s)[%d] %s vs %s", lemma, i, a[i], b[i])
			}
		}
	}
}

// TestEmbeddedAndGeneratedNetworksValidate runs the structural integrity
// checker over the embedded lexicon and a synthetic network.
func TestEmbeddedAndGeneratedNetworksValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("embedded lexicon invalid: %v", err)
	}
	g, err := Generate(DefaultGenerateConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("generated network invalid: %v", err)
	}
}
