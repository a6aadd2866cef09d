package sphere

import (
	"cmp"
	"slices"
	"sort"
)

// Vector is a sparse context vector in the dense-dimension representation
// of the integer-ID scoring core: Dims holds the distinct dimension ids in
// ascending order and Weights the matching weights. Similarity measures
// are merge-joins over the sorted dims — no map is built or hashed on the
// hot path.
//
// Dimension ids come from a Vocab: ids below Vocab.NumLabels() are labels
// known to the vocabulary (for *semnet.Network, its lemma set in sorted
// order, so integer order coincides with string order); ids at or above
// NumLabels() are labels unknown to the vocabulary, assigned per vector by
// sorted rank. Unknown dims are therefore only meaningful within the
// vector that assigned them — which suffices for disambiguation, where
// XML context vectors are compared exclusively against concept vectors
// whose dims are all known labels. Callers that need unknown labels
// comparable across vectors build them through a shared *Dict.
type Vector struct {
	Dims    []int32
	Weights []float64
}

// Len returns the number of non-zero dimensions.
func (v Vector) Len() int { return len(v.Dims) }

// WeightOf returns the weight at dimension dim, 0 when absent.
func (v Vector) WeightOf(dim int32) float64 {
	i, ok := slices.BinarySearch(v.Dims, dim)
	if !ok {
		return 0
	}
	return v.Weights[i]
}

// At returns the weight of a label resolved through the vocabulary the
// vector was built with, 0 when the label is unknown to it. Intended for
// tests and tools; the scoring core works on dims directly.
func (v Vector) At(voc Vocab, label string) float64 {
	dim, ok := voc.LabelID(label)
	if !ok {
		return 0
	}
	return v.WeightOf(dim)
}

// Clone returns a copy that does not alias the vector's backing arrays.
func (v Vector) Clone() Vector {
	return Vector{Dims: slices.Clone(v.Dims), Weights: slices.Clone(v.Weights)}
}

// Vocab resolves label strings to dense vector dimensions. *semnet.Network
// implements it over its lemma set; *Dict is the growable variant for
// callers whose labels exceed any network.
type Vocab interface {
	// LabelID returns the dimension of a known label.
	LabelID(label string) (int32, bool)
	// LabelName returns the label at a dimension, "" when out of range.
	LabelName(dim int32) string
	// NumLabels bounds the known dimensions: every known label id is in
	// [0, NumLabels).
	NumLabels() int
}

// Dict is a growable Vocab: unknown labels are interned on first use, so
// vectors built through one Dict share dimensions and stay comparable even
// for labels no network knows. The zero Dict is not usable; call NewDict.
// Dict is not safe for concurrent use.
type Dict struct {
	base  Vocab // optional frozen base vocabulary (may be nil)
	extra map[string]int32
	names []string // extra labels by (id - baseLen)
}

// NewDict returns a Dict layered over an optional base vocabulary.
func NewDict(base Vocab) *Dict {
	return &Dict{base: base, extra: make(map[string]int32)}
}

func (d *Dict) baseLen() int32 {
	if d.base == nil {
		return 0
	}
	return int32(d.base.NumLabels())
}

// LabelID resolves a label, interning it if new. ok is always true.
func (d *Dict) LabelID(label string) (int32, bool) {
	if d.base != nil {
		if id, ok := d.base.LabelID(label); ok {
			return id, true
		}
	}
	if id, ok := d.extra[label]; ok {
		return id, true
	}
	id := d.baseLen() + int32(len(d.names))
	d.extra[label] = id
	d.names = append(d.names, label)
	return id, true
}

// LabelName returns the label at a dimension, "" when out of range.
func (d *Dict) LabelName(dim int32) string {
	if d.base != nil && dim < d.baseLen() {
		return d.base.LabelName(dim)
	}
	i := int(dim - d.baseLen())
	if i < 0 || i >= len(d.names) {
		return ""
	}
	return d.names[i]
}

// NumLabels returns the current size of the label universe.
func (d *Dict) NumLabels() int { return int(d.baseLen()) + len(d.names) }

// dimWeight is one raw (dimension, structural weight) contribution before
// per-dimension folding.
type dimWeight struct {
	dim int32
	w   float64
}

// VecScratch holds the reusable buffers of vector construction. The
// returned Vector aliases the scratch, so it is valid until the next build
// through the same scratch; callers that retain vectors Clone them. The
// zero value is ready to use.
type VecScratch struct {
	pairs   []dimWeight
	unknown []string
	dims    []int32
	weights []float64
}

// resolveUnknown sorts and dedups the collected unknown labels so each can
// be assigned base+rank — an ordering that depends only on the label set,
// never on goroutine scheduling, keeping parallel and serial runs
// bit-identical.
func (s *VecScratch) resolveUnknown() {
	sort.Strings(s.unknown)
	s.unknown = slices.Compact(s.unknown)
}

func (s *VecScratch) unknownDim(base int32, label string) int32 {
	i, _ := slices.BinarySearch(s.unknown, label)
	return base + int32(i)
}

// fold stable-sorts the accumulated pairs by dimension and folds equal
// dims in insertion order (float addition is not associative; insertion
// order is the member order the map representation historically folded
// in), then scales every weight by 2/norm per Definition 7.
func (s *VecScratch) fold(norm float64) Vector {
	slices.SortStableFunc(s.pairs, func(a, b dimWeight) int { return cmp.Compare(a.dim, b.dim) })
	s.dims = s.dims[:0]
	s.weights = s.weights[:0]
	for _, p := range s.pairs {
		if n := len(s.dims); n > 0 && s.dims[n-1] == p.dim {
			s.weights[n-1] += p.w
		} else {
			s.dims = append(s.dims, p.dim)
			s.weights = append(s.weights, p.w)
		}
	}
	for i := range s.weights {
		s.weights[i] = 2 * s.weights[i] / norm
	}
	return Vector{Dims: s.dims, Weights: s.weights}
}

// VectorFromMembersInto builds the Definition 6–7 context vector from an
// already-computed sphere membership into reusable scratch buffers. When
// memberDims is non-nil it must have len(members) entries and receives the
// dimension assigned to each member's label (-1 for empty labels), letting
// callers recover per-member weights without re-resolving labels.
func VectorFromMembersInto(members []Member, d int, voc Vocab, s *VecScratch, memberDims []int32) Vector {
	base := int32(0)
	if voc != nil {
		base = int32(voc.NumLabels())
	}
	// Pass 1: collect the labels the vocabulary does not know; their dims
	// are assigned by sorted rank above base.
	s.unknown = s.unknown[:0]
	for _, m := range members {
		l := m.Node.Label
		if l == "" {
			continue
		}
		if voc == nil {
			s.unknown = append(s.unknown, l)
			continue
		}
		if _, ok := voc.LabelID(l); !ok {
			s.unknown = append(s.unknown, l)
		}
	}
	if len(s.unknown) > 0 {
		s.resolveUnknown()
	}
	// Pass 2: accumulate (dim, structural weight) in member order.
	s.pairs = s.pairs[:0]
	for i, m := range members {
		l := m.Node.Label
		if l == "" {
			if memberDims != nil {
				memberDims[i] = -1
			}
			continue
		}
		var dim int32
		if voc != nil {
			if id, ok := voc.LabelID(l); ok {
				dim = id
			} else {
				dim = s.unknownDim(base, l)
			}
		} else {
			dim = s.unknownDim(base, l)
		}
		if memberDims != nil {
			memberDims[i] = dim
		}
		s.pairs = append(s.pairs, dimWeight{dim: dim, w: Struct(m.Dist, d)})
	}
	return s.fold(float64(len(members) + 1))
}

// VectorFromMembers builds the Definition 6–7 context vector from an
// already-computed sphere membership, letting callers that need both the
// members and the vector run the BFS once.
func VectorFromMembers(members []Member, d int, voc Vocab) Vector {
	var s VecScratch
	return VectorFromMembersInto(members, d, voc, &s, nil)
}
