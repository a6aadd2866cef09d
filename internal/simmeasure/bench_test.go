package simmeasure

import (
	"testing"

	"repro/internal/semnet"
	"repro/internal/wordnet"
)

var benchPairs = [][2]semnet.ConceptID{
	{"actor.n.01", "star.n.02"},
	{"cast.n.01", "picture.n.02"},
	{"book.n.01", "author.n.01"},
	{"state.n.01", "city.n.01"},
	{"head.n.01", "line.n.08"},
}

func BenchmarkEdge(b *testing.B) {
	net := wordnet.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := benchPairs[i%len(benchPairs)]
		Edge(net, p[0], p[1])
	}
}

func BenchmarkNodeIC(b *testing.B) {
	net := wordnet.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := benchPairs[i%len(benchPairs)]
		NodeIC(net, p[0], p[1])
	}
}

func BenchmarkGloss(b *testing.B) {
	net := wordnet.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := benchPairs[i%len(benchPairs)]
		Gloss(net, p[0], p[1])
	}
}

func BenchmarkCombinedCold(b *testing.B) {
	net := wordnet.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(net, EqualWeights()) // fresh cache each iteration
		p := benchPairs[i%len(benchPairs)]
		m.Sim(p[0], p[1])
	}
}

func BenchmarkCombinedCached(b *testing.B) {
	net := wordnet.Default()
	m := New(net, EqualWeights())
	for _, p := range benchPairs {
		m.Sim(p[0], p[1]) // warm the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := benchPairs[i%len(benchPairs)]
		m.Sim(p[0], p[1])
	}
}

// warmMeasure returns a Measure over the embedded lexicon with every
// pairwise similarity of the sample precomputed, plus the sampled ids in
// both string and dense form.
func warmMeasure(tb testing.TB, sample int) (*Measure, []semnet.ConceptID, []semnet.DenseID) {
	tb.Helper()
	net := wordnet.Default()
	ids := net.Concepts()
	if len(ids) > sample {
		ids = ids[:sample]
	}
	dense := make([]semnet.DenseID, len(ids))
	for i, id := range ids {
		d, ok := net.Dense(id)
		if !ok {
			tb.Fatalf("no dense id for %s", id)
		}
		dense[i] = d
	}
	m := New(net, EqualWeights())
	for _, a := range ids {
		for _, b := range ids {
			m.Sim(a, b)
		}
	}
	return m, ids, dense
}

// TestWarmSimLookupAllocationFree pins the shard-fix goal: once a pair is
// cached, Sim, SimDense and WordSimDense perform zero heap allocations per
// lookup — the packed int-pair key and two-multiply shard mix replaced the
// per-lookup maphash hasher and string conversions of the string-keyed
// cache. It also pins the uncached computation: SimDirectDense over pairs
// whose LCS is memoized allocates nothing either, because the gloss
// overlap kernel runs on interned occurrence lists with pooled scratch.
func TestWarmSimLookupAllocationFree(t *testing.T) {
	m, ids, dense := warmMeasure(t, 40)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range ids {
			for j := range ids {
				m.Sim(ids[i], ids[j])
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warm Sim sweep allocates %.1f times, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		for i := range dense {
			for j := range dense {
				m.SimDense(dense[i], dense[j])
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warm SimDense sweep allocates %.1f times, want 0", allocs)
	}
	if !raceEnabled {
		allocs = testing.AllocsPerRun(100, func() {
			for i := range dense {
				for j := range dense {
					m.SimDirectDense(dense[i], dense[j])
				}
			}
		})
		if allocs != 0 {
			t.Errorf("uncached SimDirectDense sweep allocates %.1f times, want 0", allocs)
		}
	}
	lemmas := make([]int32, len(dense))
	for i, d := range dense {
		lemmas[i] = m.Network().LabelDense(d)
	}
	wordSweep := func() {
		for _, d := range dense {
			for _, l := range lemmas {
				simSink, _ = m.WordSimDense(d, l)
			}
		}
	}
	wordSweep()
	allocs = testing.AllocsPerRun(100, wordSweep)
	if allocs != 0 {
		t.Errorf("warm WordSimDense sweep allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkSimDenseWarm measures a warm cache hit on the dense fast path
// used by the disambiguation inner loop.
func BenchmarkSimDenseWarm(b *testing.B) {
	m, _, dense := warmMeasure(b, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SimDense(dense[i%len(dense)], dense[(i*7+3)%len(dense)])
	}
}

// BenchmarkSimDirectDense measures the uncached combined similarity — the
// cost of one memo fill — averaged over every ordered pair of a 40-concept
// sample with warm LCS memo entries, so the figure is dominated by the
// gloss overlap kernel.
func BenchmarkSimDirectDense(b *testing.B) {
	m, _, dense := warmMeasure(b, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % (len(dense) * len(dense))
		simSink += m.SimDirectDense(dense[k/len(dense)], dense[k%len(dense)])
	}
}

// simSink keeps benchmarked results live.
var simSink float64

// raceEnabled reports a race-detector build (set in race_test.go).
var raceEnabled bool
