package sphere

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// vecLit builds a Vector from a label -> weight literal through a shared
// vocabulary, so vectors built with the same voc stay comparable.
func vecLit(voc *Dict, m map[string]float64) Vector {
	labels := make([]string, 0, len(m))
	for l := range m {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var s VecScratch
	for _, l := range labels {
		id, _ := voc.LabelID(l)
		s.pairs = append(s.pairs, dimWeight{dim: id, w: m[l]})
	}
	// fold sorts by dim and scales by 2/norm; use norm=2 for identity.
	return s.fold(2).Clone()
}

func TestCosineBasics(t *testing.T) {
	voc := NewDict(nil)
	a := vecLit(voc, map[string]float64{"x": 1, "y": 0})
	if got := Cosine(a, a); math.Abs(got-1) > 1e-9 {
		t.Errorf("Cosine(a, a) = %f", got)
	}
	b := vecLit(voc, map[string]float64{"z": 1})
	if got := Cosine(a, b); got != 0 {
		t.Errorf("orthogonal Cosine = %f", got)
	}
	if got := Cosine(a, Vector{}); got != 0 {
		t.Errorf("Cosine with empty = %f", got)
	}
	// Scale invariance.
	c := vecLit(voc, map[string]float64{"x": 0.5, "y": 0.25})
	c2 := vecLit(voc, map[string]float64{"x": 1, "y": 0.5})
	if math.Abs(Cosine(a, c)-Cosine(a, c2)) > 1e-9 {
		t.Error("Cosine not scale invariant")
	}
}

func TestJaccardBasics(t *testing.T) {
	voc := NewDict(nil)
	a := vecLit(voc, map[string]float64{"x": 1, "y": 2})
	if got := Jaccard(a, a); math.Abs(got-1) > 1e-9 {
		t.Errorf("Jaccard(a, a) = %f", got)
	}
	if got := Jaccard(a, vecLit(voc, map[string]float64{"z": 1})); got != 0 {
		t.Errorf("disjoint Jaccard = %f", got)
	}
	// Partial overlap: min-sum/max-sum = 1/(1+2+1) with b = {x:1, z:1}.
	b := vecLit(voc, map[string]float64{"x": 1, "z": 1})
	want := 1.0 / 4
	if got := Jaccard(a, b); math.Abs(got-want) > 1e-9 {
		t.Errorf("Jaccard = %f, want %f", got, want)
	}
}

func TestPearsonBasics(t *testing.T) {
	voc := NewDict(nil)
	a := vecLit(voc, map[string]float64{"x": 1, "y": 2, "z": 3})
	if got := Pearson(a, a); math.Abs(got-1) > 1e-9 {
		t.Errorf("Pearson(a, a) = %f", got)
	}
	// Anti-correlated vectors map toward 0 under (r+1)/2.
	b := vecLit(voc, map[string]float64{"x": 3, "y": 2, "z": 1})
	if got := Pearson(a, b); got > 0.01 {
		t.Errorf("anti-correlated Pearson = %f, want ~0", got)
	}
	// Degenerate inputs.
	if got := Pearson(vecLit(voc, map[string]float64{"x": 1}), vecLit(voc, map[string]float64{"x": 2})); got != 0 {
		t.Errorf("single-dim Pearson = %f", got)
	}
	// Exactly anti-correlated over the union of dimensions: r rounds
	// below -1, and the unclamped (r+1)/2 read -1.1e-16. This pair once
	// failed TestVectorSimsRange's random draw.
	c := vecLit(voc, map[string]float64{"a": 6, "b": 4, "c": 6, "d": 8, "e": 2})
	d := vecLit(voc, map[string]float64{"a": 2, "b": 4, "c": 2, "e": 6, "f": 8})
	if got := Pearson(c, d); got < 0 || got > 1 {
		t.Errorf("anti-correlated Pearson = %g, want within [0, 1]", got)
	}
}

// TestVectorSimsRange: all three similarities stay in [0, 1] and are
// symmetric on arbitrary sparse vectors.
func TestVectorSimsRange(t *testing.T) {
	mk := func(voc *Dict, ws []float64) Vector {
		m := map[string]float64{}
		for i, w := range ws {
			if i >= 6 {
				break
			}
			if w < 0 {
				w = -w
			}
			w = math.Mod(w, 10)
			if w > 0 {
				m[string(rune('a'+i))] = w
			}
		}
		return vecLit(voc, m)
	}
	f := func(aw, bw []float64) bool {
		voc := NewDict(nil)
		a, b := mk(voc, aw), mk(voc, bw)
		for _, sim := range []VectorSim{Cosine, Jaccard, Pearson} {
			v := sim(a, b)
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			if math.Abs(v-sim(b, a)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMergeJoinMatchesMapFold cross-checks the merge-join similarities
// against a straightforward map-based reference on random sparse vectors.
func TestMergeJoinMatchesMapFold(t *testing.T) {
	ref := func(kind int, a, b map[string]float64) float64 {
		union := map[string]struct{}{}
		for l := range a {
			union[l] = struct{}{}
		}
		for l := range b {
			union[l] = struct{}{}
		}
		dims := make([]string, 0, len(union))
		for l := range union {
			dims = append(dims, l)
		}
		sort.Strings(dims)
		switch kind {
		case 0: // cosine
			if len(a) == 0 || len(b) == 0 {
				return 0
			}
			var dot, na, nb float64
			for _, l := range dims {
				dot += a[l] * b[l]
				na += a[l] * a[l]
				nb += b[l] * b[l]
			}
			if na == 0 || nb == 0 {
				return 0
			}
			v := dot / (math.Sqrt(na) * math.Sqrt(nb))
			return math.Min(v, 1)
		case 1: // jaccard
			if len(a) == 0 || len(b) == 0 {
				return 0
			}
			var num, den float64
			for _, l := range dims {
				num += math.Min(a[l], b[l])
				den += math.Max(a[l], b[l])
			}
			if den == 0 {
				return 0
			}
			return num / den
		default: // pearson
			n := float64(len(dims))
			if n < 2 {
				return 0
			}
			var sa, sb float64
			for _, l := range dims {
				sa += a[l]
				sb += b[l]
			}
			ma, mb := sa/n, sb/n
			var cov, va, vb float64
			for _, l := range dims {
				da, db := a[l]-ma, b[l]-mb
				cov += da * db
				va += da * da
				vb += db * db
			}
			if va == 0 || vb == 0 {
				return 0
			}
			return (cov/math.Sqrt(va*vb) + 1) / 2
		}
	}
	mkMap := func(ws []float64) map[string]float64 {
		m := map[string]float64{}
		for i, w := range ws {
			if i >= 8 {
				break
			}
			if w < 0 {
				w = -w
			}
			w = math.Mod(w, 10)
			if w > 0 {
				m[string(rune('a'+i%8))] = w
			}
		}
		return m
	}
	f := func(aw, bw []float64) bool {
		am, bm := mkMap(aw), mkMap(bw)
		voc := NewDict(nil)
		av, bv := vecLit(voc, am), vecLit(voc, bm)
		sims := []VectorSim{Cosine, Jaccard, Pearson}
		for kind, sim := range sims {
			if math.Abs(sim(av, bv)-ref(kind, am, bm)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestCosineWithNormsMatchesCosine checks that the norm-cached cosine and
// the dense-row cosine return Cosine's exact bits: on seeded random sparse
// vectors over a small dimension range (so most pairs share some
// dimensions), and on the edge cases — empty vectors, all-zero weights,
// disjoint, identical, and one vector's dimensions nested in the other's.
// Every second vector is written into one row that held the previous
// pair's vector and was zeroed at its dimensions, as the sense rows of
// the document path are reused.
func TestCosineWithNormsMatchesCosine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func() Vector {
		var v Vector
		for dim := int32(0); dim < 40; dim++ {
			if rng.Intn(3) == 0 {
				v.Dims = append(v.Dims, dim)
				v.Weights = append(v.Weights, rng.Float64()*rng.Float64())
			}
		}
		return v
	}
	vec := func(dims []int32, ws ...float64) Vector { return Vector{Dims: dims, Weights: ws} }
	full := vec([]int32{1, 3, 5, 8}, 0.25, 0.5, 1.0/3, 0.125)
	pairs := [][2]Vector{
		{{}, {}},
		{{}, full},
		{full, {}},
		{vec([]int32{1, 3}, 0, 0), full},
		{full, vec([]int32{2, 4}, 0, 0)},
		{vec([]int32{0, 2, 4}, 0.3, 0.6, 0.9), full},
		{full, full},
		{vec([]int32{3, 8}, 0.7, 0.1), full},
		{full, vec([]int32{1, 5}, 0.2, 0.4)},
	}
	for i := 0; i < 5000; i++ {
		pairs = append(pairs, [2]Vector{random(), random()})
	}
	dense := make([]float64, 40)
	for i, p := range pairs {
		a, b := p[0], p[1]
		want := Cosine(a, b)
		got := CosineWithNorms(a, b, SquaredNorm(a), SquaredNorm(b))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pair %d %v · %v: CosineWithNorms %.17g, Cosine %.17g", i, a, b, got, want)
		}
		for j, dim := range b.Dims {
			dense[dim] = b.Weights[j]
		}
		got = CosineDense(a, dense, SquaredNorm(a), SquaredNorm(b))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pair %d %v · %v: CosineDense %.17g, Cosine %.17g", i, a, b, got, want)
		}
		for _, dim := range b.Dims {
			dense[dim] = 0
		}
	}
}
