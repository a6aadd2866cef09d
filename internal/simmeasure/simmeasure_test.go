package simmeasure

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/semnet"
	"repro/internal/wordnet"
)

func testNet(t *testing.T) *semnet.Network {
	t.Helper()
	b := semnet.NewBuilder()
	b.AddConcept("entity.n.01", "that which exists", 100, "entity")
	b.AddConcept("person.n.01", "a human being regarded as an individual", 60, "person")
	b.AddConcept("object.n.01", "a tangible and visible thing", 50, "object")
	b.AddConcept("performer.n.01", "an entertainer who performs for an audience", 20, "performer")
	b.AddConcept("actor.n.01", "a performer who acts in a play or film", 10, "actor")
	b.AddConcept("star.n.02", "an actor who plays a principal role in a play or film", 8, "star")
	b.AddConcept("rock.n.01", "a lump of hard consolidated mineral matter", 12, "rock", "stone")
	b.IsA("person.n.01", "entity.n.01")
	b.IsA("object.n.01", "entity.n.01")
	b.IsA("performer.n.01", "person.n.01")
	b.IsA("actor.n.01", "performer.n.01")
	b.IsA("star.n.02", "performer.n.01")
	b.IsA("rock.n.01", "object.n.01")
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestEdgeWuPalmer(t *testing.T) {
	n := testNet(t)
	// actor (depth 4) and star (depth 4) share performer (depth 3):
	// 2*3/(4+4) = 0.75.
	if got := Edge(n, "actor.n.01", "star.n.02"); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("Edge(actor, star) = %.4f, want 0.75", got)
	}
	// actor vs rock: LCS entity (depth 1), depths 4 and 3: 2/(4+3).
	if got := Edge(n, "actor.n.01", "rock.n.01"); math.Abs(got-2.0/7) > 1e-9 {
		t.Errorf("Edge(actor, rock) = %.4f, want %.4f", got, 2.0/7)
	}
	if got := Edge(n, "actor.n.01", "actor.n.01"); got != 1 {
		t.Errorf("Edge(x, x) = %f", got)
	}
}

func TestNodeICLin(t *testing.T) {
	n := testNet(t)
	sibling := NodeIC(n, "actor.n.01", "star.n.02")
	distant := NodeIC(n, "actor.n.01", "rock.n.01")
	if !(sibling > distant) {
		t.Errorf("Lin: sibling %.4f should exceed distant %.4f", sibling, distant)
	}
	if sibling <= 0 || sibling > 1 {
		t.Errorf("Lin out of range: %f", sibling)
	}
	if got := NodeIC(n, "star.n.02", "star.n.02"); got != 1 {
		t.Errorf("Lin(x, x) = %f", got)
	}
}

func TestGlossOverlap(t *testing.T) {
	n := testNet(t)
	// actor's and star's glosses share the phrase "in a play or film".
	related := Gloss(n, "actor.n.01", "star.n.02")
	unrelated := Gloss(n, "actor.n.01", "rock.n.01")
	if !(related > unrelated) {
		t.Errorf("gloss: related %.4f should exceed unrelated %.4f", related, unrelated)
	}
	if related <= 0 || related >= 1 {
		t.Errorf("gloss out of range: %f", related)
	}
	if got := Gloss(n, "rock.n.01", "rock.n.01"); got != 1 {
		t.Errorf("Gloss(x, x) = %f", got)
	}
}

func TestWeightsValidate(t *testing.T) {
	if err := EqualWeights().Validate(); err != nil {
		t.Errorf("EqualWeights invalid: %v", err)
	}
	if err := (Weights{Edge: 0.5, Node: 0.5, Gloss: 0.5}).Validate(); err == nil {
		t.Error("sum > 1 should fail")
	}
	if err := (Weights{Edge: -1, Node: 2}).Validate(); err == nil {
		t.Error("negative weight should fail")
	}
	for _, w := range []Weights{EdgeOnly(), NodeOnly(), GlossOnly()} {
		if err := w.Validate(); err != nil {
			t.Errorf("%+v invalid: %v", w, err)
		}
	}
}

func TestWeightsNormalize(t *testing.T) {
	w := Weights{Edge: 2, Node: 1, Gloss: 1}.Normalize()
	if math.Abs(w.Edge-0.5) > 1e-9 || math.Abs(w.Node-0.25) > 1e-9 {
		t.Errorf("Normalize = %+v", w)
	}
	if got := (Weights{}).Normalize(); got != EqualWeights() {
		t.Errorf("zero weights should normalize to equal, got %+v", got)
	}
}

func TestMeasureCombinationAndCache(t *testing.T) {
	n := testNet(t)
	m := New(n, EqualWeights())
	s1 := m.Sim("actor.n.01", "star.n.02")
	s2 := m.Sim("star.n.02", "actor.n.01") // symmetric, cached
	if s1 != s2 {
		t.Errorf("Sim not symmetric: %f vs %f", s1, s2)
	}
	want := (Edge(n, "actor.n.01", "star.n.02") +
		NodeIC(n, "actor.n.01", "star.n.02") +
		Gloss(n, "actor.n.01", "star.n.02")) / 3
	if math.Abs(s1-want) > 1e-9 {
		t.Errorf("combined = %f, want %f", s1, want)
	}
	if m.Sim("actor.n.01", "actor.n.01") != 1 {
		t.Error("Sim(x,x) != 1")
	}
}

func TestMeasureSingleComponents(t *testing.T) {
	n := testNet(t)
	if got := New(n, EdgeOnly()).Sim("actor.n.01", "star.n.02"); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("edge-only Sim = %f", got)
	}
	gOnly := New(n, GlossOnly()).Sim("actor.n.01", "star.n.02")
	if math.Abs(gOnly-Gloss(n, "actor.n.01", "star.n.02")) > 1e-9 {
		t.Errorf("gloss-only Sim = %f", gOnly)
	}
}

func TestLongestCommonRun(t *testing.T) {
	a := []string{"x", "play", "or", "film", "y"}
	b := []string{"play", "or", "film"}
	ai, bi, l := longestCommonRun(a, b)
	if l != 3 || ai != 1 || bi != 0 {
		t.Errorf("longestCommonRun = (%d, %d, %d)", ai, bi, l)
	}
	if _, _, l := longestCommonRun(nil, b); l != 0 {
		t.Error("empty input should yield 0")
	}
}

func TestPhraseOverlapQuadratic(t *testing.T) {
	// One 2-run scores 4; two isolated words score 2.
	if got := phraseOverlap([]string{"a", "b"}, []string{"a", "b"}); got != 4 {
		t.Errorf("run of 2 = %f, want 4", got)
	}
	if got := phraseOverlap([]string{"a", "x", "b"}, []string{"a", "y", "b"}); got != 2 {
		t.Errorf("two singles = %f, want 2", got)
	}
	if got := phraseOverlap([]string{"a"}, []string{"b"}); got != 0 {
		t.Errorf("disjoint = %f, want 0", got)
	}
}

// TestAllMeasuresInRangeOnRealLexicon sweeps the embedded lexicon: every
// pairwise similarity over a sample must be in [0, 1] and symmetric.
func TestAllMeasuresInRangeOnRealLexicon(t *testing.T) {
	net := wordnet.Default()
	ids := net.Concepts()
	sample := ids
	if len(sample) > 60 {
		sample = sample[:60]
	}
	m := New(net, EqualWeights())
	for _, a := range sample {
		for _, b := range sample {
			v := m.Sim(a, b)
			if v < 0 || v > 1 {
				t.Fatalf("Sim(%s, %s) = %f out of range", a, b, v)
			}
			if v != m.Sim(b, a) {
				t.Fatalf("Sim(%s, %s) asymmetric", a, b)
			}
		}
	}
}

// TestSimPropertyRandomPairs: on the synthetic generator, all measures stay
// in range and self-similarity is maximal.
func TestSimPropertyRandomPairs(t *testing.T) {
	net, err := wordnet.Generate(wordnet.GenerateConfig{Seed: 7, Concepts: 120, Lemmas: 40, MaxBranch: 5, PartEvery: 6})
	if err != nil {
		t.Fatal(err)
	}
	ids := net.Concepts()
	f := func(i, j uint16) bool {
		a := ids[int(i)%len(ids)]
		b := ids[int(j)%len(ids)]
		for _, v := range []float64{Edge(net, a, b), NodeIC(net, a, b), Gloss(net, a, b)} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return Edge(net, a, a) == 1 && NodeIC(net, a, a) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// wordSample draws a seeded sample of distinct (sense, label id) pairs from
// the embedded lexicon: random pairs, plus for every third draw one of the
// concept's own lemmas, which are reported in own (they must score 1).
func wordSample(net *semnet.Network, n int) (pairs [][2]int32, own map[[2]int32]bool) {
	rng := rand.New(rand.NewSource(16))
	own = make(map[[2]int32]bool)
	seen := make(map[[2]int32]bool)
	for len(pairs) < n {
		s := semnet.DenseID(rng.Intn(net.Len()))
		l := int32(rng.Intn(net.NumLabels()))
		self := len(pairs)%3 == 0
		if self {
			id, _ := net.ConceptAt(s)
			lemmas := net.Concept(id).Lemmas
			l = net.LemmaDense(lemmas[rng.Intn(len(lemmas))])
		}
		p := [2]int32{s, l}
		if seen[p] {
			continue
		}
		seen[p] = true
		own[p] = self
		pairs = append(pairs, p)
	}
	return pairs, own
}

// wantWordSim is Definition 8's per-word maximum written out over the
// uncached pair measure: max(0, max_j SimDirectDense(s, s_j)).
func wantWordSim(m *Measure, s semnet.DenseID, lemma int32) float64 {
	best := 0.0
	for _, sj := range m.Network().LemmaSensesDense(lemma) {
		best = math.Max(best, m.SimDirectDense(s, sj))
	}
	return best
}

// TestWordSimMatchesPairMaximum: the word memo, its uncached twin, and the
// maximum over the lemma's sense pairs agree bit for bit, both on the call
// that fills an entry and on the later hit, and the reads report one fill
// and one hit per entry.
func TestWordSimMatchesPairMaximum(t *testing.T) {
	net := wordnet.Default()
	pairs, own := wordSample(net, 600)
	ref := New(net, EqualWeights())
	m := New(net, EqualWeights())
	var hits, misses int
	for _, p := range pairs {
		want := wantWordSim(ref, p[0], p[1])
		if own[p] && want != 1 {
			t.Fatalf("sense %d vs its own lemma %q scores %v, want 1", p[0], net.LabelName(p[1]), want)
		}
		fill, fillHit := m.WordSimDense(p[0], p[1])
		hit, hitHit := m.WordSimDense(p[0], p[1])
		for _, h := range []bool{fillHit, hitHit} {
			if h {
				hits++
			} else {
				misses++
			}
		}
		direct := m.WordSimDirectDense(p[0], p[1])
		for _, got := range []struct {
			name string
			v    float64
		}{{"fill", fill}, {"hit", hit}, {"direct", direct}} {
			if math.Float64bits(got.v) != math.Float64bits(want) {
				t.Fatalf("(%d, %q) %s = %v, want %v", p[0], net.LabelName(p[1]), got.name, got.v, want)
			}
		}
	}
	if hits != len(pairs) || misses != len(pairs) {
		t.Errorf("%d hits, %d misses; want %d each", hits, misses, len(pairs))
	}
}

// TestWordSimConcurrent: goroutines sharing one Measure, each sweeping the
// sample twice from a different starting point, race fills and hits of the
// same entries; every read must equal the pair maximum bit for bit, and
// the reads report every entry filled at least once and by each worker at
// most once. Run under -race.
func TestWordSimConcurrent(t *testing.T) {
	const workers = 8
	net := wordnet.Default()
	pairs, _ := wordSample(net, 400)
	ref := New(net, EqualWeights())
	want := make([]float64, len(pairs))
	for i, p := range pairs {
		want[i] = wantWordSim(ref, p[0], p[1])
	}
	m := New(net, EqualWeights())
	errs := make(chan string, workers)
	var hits, misses [workers]int
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 2*len(pairs); k++ {
				i := (k + w*len(pairs)/workers) % len(pairs)
				got, hit := m.WordSimDense(pairs[i][0], pairs[i][1])
				if math.Float64bits(got) != math.Float64bits(want[i]) {
					errs <- fmt.Sprintf("worker %d: (%d, %d) = %v, want %v", w, pairs[i][0], pairs[i][1], got, want[i])
					return
				}
				if hit {
					hits[w]++
				} else {
					misses[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	var h, mi int
	for w := range workers {
		h += hits[w]
		mi += misses[w]
	}
	if h+mi != workers*2*len(pairs) || mi < len(pairs) || mi > workers*len(pairs) {
		t.Errorf("%d hits + %d misses, want %d lookups with %d to %d fills",
			h, mi, workers*2*len(pairs), len(pairs), workers*len(pairs))
	}
}
