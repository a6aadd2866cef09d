package simmeasure

import (
	"testing"

	"repro/internal/semnet"
	"repro/internal/wordnet"
)

// benchIDs are five concept pairs of the embedded lexicon.
var benchIDs = [][2]semnet.ConceptID{
	{"actor.n.01", "star.n.02"},
	{"cast.n.01", "picture.n.02"},
	{"book.n.01", "author.n.01"},
	{"state.n.01", "city.n.01"},
	{"head.n.01", "line.n.08"},
}

// benchPairs returns benchIDs as dense ids of net.
func benchPairs(tb testing.TB, net *semnet.Network) [][2]semnet.DenseID {
	out := make([][2]semnet.DenseID, len(benchIDs))
	for i, p := range benchIDs {
		d := dense(tb, net, p[0], p[1])
		out[i] = [2]semnet.DenseID{d[0], d[1]}
	}
	return out
}

// benchSimDense measures SimDense under weights w over the benchmark pairs.
func benchSimDense(b *testing.B, w Weights) {
	m := New(wordnet.Default(), w)
	pairs := benchPairs(b, m.Network())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		simSink += m.SimDense(p[0], p[1])
	}
}

func BenchmarkEdge(b *testing.B)   { benchSimDense(b, EdgeOnly()) }
func BenchmarkNodeIC(b *testing.B) { benchSimDense(b, NodeOnly()) }
func BenchmarkGloss(b *testing.B)  { benchSimDense(b, GlossOnly()) }

func BenchmarkCombinedCold(b *testing.B) {
	net := wordnet.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(net, EqualWeights()) // fresh cache each iteration
		p := benchIDs[i%len(benchIDs)]
		m.Sim(p[0], p[1])
	}
}

// BenchmarkCombinedCached measures warm word-memo reads of the combined
// measure: each benchmark pair's first sense against the primary label of
// the second.
func BenchmarkCombinedCached(b *testing.B) {
	net := wordnet.Default()
	m := New(net, EqualWeights())
	pairs := benchPairs(b, net)
	for _, p := range pairs {
		m.WordSimDense(p[0], net.LabelDense(p[1])) // warm the memo
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		v, _ := m.WordSimDense(p[0], net.LabelDense(p[1]))
		simSink += v
	}
}

// warmMeasure returns a Measure over the embedded lexicon with the word
// memo filled for every sampled sense against every sampled concept's
// primary label, plus the sampled ids in string and dense form and the
// primary label ids.
func warmMeasure(tb testing.TB, sample int) (*Measure, []semnet.ConceptID, []semnet.DenseID, []int32) {
	tb.Helper()
	net := wordnet.Default()
	ids := net.Concepts()
	if len(ids) > sample {
		ids = ids[:sample]
	}
	d := dense(tb, net, ids...)
	lemmas := make([]int32, len(d))
	for i, c := range d {
		lemmas[i] = net.LabelDense(c)
	}
	m := New(net, EqualWeights())
	for _, s := range d {
		for _, l := range lemmas {
			m.WordSimDense(s, l)
		}
	}
	return m, ids, d, lemmas
}

// TestWarmSimLookupAllocationFree pins the allocation behaviour of the
// measure: a warm word-memo read allocates nothing — the packed int-pair
// key and two-multiply shard mix need no hasher and no string conversion
// — and neither does the uncached pair computation, through SimDense or
// the ConceptID adapter Sim, because LCS scans precomputed ancestor lists
// and the gloss overlap kernel runs on interned occurrence lists with
// pooled scratch.
func TestWarmSimLookupAllocationFree(t *testing.T) {
	m, ids, d, lemmas := warmMeasure(t, 40)
	wordSweep := func() {
		for _, s := range d {
			for _, l := range lemmas {
				simSink, _ = m.WordSimDense(s, l)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, wordSweep); allocs != 0 {
		t.Errorf("warm WordSimDense sweep allocates %.1f times, want 0", allocs)
	}
	if raceEnabled {
		return
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := range d {
			for j := range d {
				simSink = m.SimDense(d[i], d[j])
			}
		}
	})
	if allocs != 0 {
		t.Errorf("SimDense sweep allocates %.1f times, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(20, func() {
		for i := range ids {
			for j := range ids {
				simSink = m.Sim(ids[i], ids[j])
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Sim sweep allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkSimDenseWarm measures a warm word-memo read, the similarity
// lookup of the disambiguation inner loop, over the 40 × 40 sample of
// senses and primary labels.
func BenchmarkSimDenseWarm(b *testing.B) {
	m, _, d, lemmas := warmMeasure(b, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := m.WordSimDense(d[i%len(d)], lemmas[(i*7+3)%len(lemmas)])
		simSink += v
	}
}

// BenchmarkSimDense measures the combined pair similarity — the cost of
// one sense pair in a word-memo fill — averaged over every ordered pair of
// a 40-concept sample, so the figure is dominated by the gloss overlap
// kernel.
func BenchmarkSimDense(b *testing.B) {
	m, _, d, _ := warmMeasure(b, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % (len(d) * len(d))
		simSink += m.SimDense(d[k/len(d)], d[k%len(d)])
	}
}

// simSink keeps benchmarked results live.
var simSink float64

// raceEnabled reports a race-detector build (set in race_test.go).
var raceEnabled bool
