package sphere

import "math"

// VectorSim is a similarity function over sparse context vectors, returning
// values in [0, 1]. Cosine is the paper's default (footnote 10); Jaccard
// and Pearson are the alternatives it mentions.
//
// Vectors carry their dimensions sorted, so all three measures are branchy
// two-pointer merge-joins: no union map is built, nothing is hashed, and
// accumulation visits dimensions in ascending id order — a fixed order, so
// the non-associative float sums are bit-for-bit reproducible.
type VectorSim func(a, b Vector) float64

// Cosine returns the cosine similarity of a and b, 0 when either is empty.
func Cosine(a, b Vector) float64 {
	if len(a.Dims) == 0 || len(b.Dims) == 0 {
		return 0
	}
	var dot, na, nb float64
	i, j := 0, 0
	for i < len(a.Dims) && j < len(b.Dims) {
		da, db := a.Dims[i], b.Dims[j]
		switch {
		case da == db:
			wa, wb := a.Weights[i], b.Weights[j]
			dot += wa * wb
			na += wa * wa
			nb += wb * wb
			i++
			j++
		case da < db:
			wa := a.Weights[i]
			na += wa * wa
			i++
		default:
			wb := b.Weights[j]
			nb += wb * wb
			j++
		}
	}
	for ; i < len(a.Dims); i++ {
		wa := a.Weights[i]
		na += wa * wa
	}
	for ; j < len(b.Dims); j++ {
		wb := b.Weights[j]
		nb += wb * wb
	}
	if na == 0 || nb == 0 {
		return 0
	}
	v := dot / (math.Sqrt(na) * math.Sqrt(nb))
	if v > 1 { // guard against rounding
		return 1
	}
	return v
}

// SquaredNorm returns the sum of v's squared weights, added in ascending
// dimension order — the order Cosine accumulates each vector's norm in.
func SquaredNorm(v Vector) float64 {
	var n float64
	for _, w := range v.Weights {
		n += w * w
	}
	return n
}

// CosineWithNorms is Cosine for vectors whose squared norms na and nb
// (SquaredNorm) are already known: one merge over the shared dimensions
// for the dot product. It returns Cosine's exact bits, since the dot
// product adds the shared dimensions in the same ascending order.
func CosineWithNorms(a, b Vector, na, nb float64) float64 {
	if len(a.Dims) == 0 || len(b.Dims) == 0 || na == 0 || nb == 0 {
		return 0
	}
	var dot float64
	i, j := 0, 0
	for i < len(a.Dims) && j < len(b.Dims) {
		da, db := a.Dims[i], b.Dims[j]
		switch {
		case da == db:
			wa, wb := a.Weights[i], b.Weights[j]
			dot += wa * wb
			i++
			j++
		case da < db:
			i++
		default:
			j++
		}
	}
	return normalizedDot(dot, na, nb)
}

// normalizedDot divides a dot product by the vectors' norms, given
// squared, guarding against rounding above 1.
func normalizedDot(dot, na, nb float64) float64 {
	v := dot / (math.Sqrt(na) * math.Sqrt(nb))
	if v > 1 {
		return 1
	}
	return v
}

// CosineDense is CosineWithNorms with b given as a dense row: b[dim] is
// b's weight at dim, 0 where b has none, for every dimension of a. The
// dot product runs over a's dimensions in ascending order, so its cost
// does not depend on b's length. For finite non-negative weights it
// returns Cosine's exact bits: a product on a dimension b lacks is +0,
// which leaves the running sum unchanged, so the sum adds the shared
// products in the merge's order. An empty b has nb = 0 and scores 0, as
// in Cosine.
func CosineDense(a Vector, b []float64, na, nb float64) float64 {
	if len(a.Dims) == 0 || na == 0 || nb == 0 {
		return 0
	}
	var dot float64
	for i, dim := range a.Dims {
		dot += a.Weights[i] * b[dim]
	}
	return normalizedDot(dot, na, nb)
}

// Jaccard returns the weighted (Ruzicka) Jaccard similarity:
// sum(min)/sum(max) over the union of dimensions.
func Jaccard(a, b Vector) float64 {
	if len(a.Dims) == 0 || len(b.Dims) == 0 {
		return 0
	}
	var num, den float64
	i, j := 0, 0
	for i < len(a.Dims) && j < len(b.Dims) {
		da, db := a.Dims[i], b.Dims[j]
		switch {
		case da == db:
			wa, wb := a.Weights[i], b.Weights[j]
			num += math.Min(wa, wb)
			den += math.Max(wa, wb)
			i++
			j++
		case da < db:
			// Absent dim in b: min(wa, 0) = 0, max(wa, 0) = wa for the
			// non-negative weights of Definition 7; mirror the historical
			// math.Min/Max calls exactly in case of signed inputs.
			wa := a.Weights[i]
			num += math.Min(wa, 0)
			den += math.Max(wa, 0)
			i++
		default:
			wb := b.Weights[j]
			num += math.Min(0, wb)
			den += math.Max(0, wb)
			j++
		}
	}
	for ; i < len(a.Dims); i++ {
		wa := a.Weights[i]
		num += math.Min(wa, 0)
		den += math.Max(wa, 0)
	}
	for ; j < len(b.Dims); j++ {
		wb := b.Weights[j]
		num += math.Min(0, wb)
		den += math.Max(0, wb)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Pearson maps the Pearson correlation coefficient of the two vectors over
// their union of dimensions onto [0, 1] via (r+1)/2, clamped, so it is
// usable as a similarity. Degenerate (zero-variance) inputs score 0.
func Pearson(a, b Vector) float64 {
	// First merge pass: union size and per-vector sums (absent dims
	// contribute 0 to the sums but count toward n).
	var sa, sb float64
	union := 0
	i, j := 0, 0
	for i < len(a.Dims) && j < len(b.Dims) {
		da, db := a.Dims[i], b.Dims[j]
		switch {
		case da == db:
			sa += a.Weights[i]
			sb += b.Weights[j]
			i++
			j++
		case da < db:
			sa += a.Weights[i]
			i++
		default:
			sb += b.Weights[j]
			j++
		}
		union++
	}
	for ; i < len(a.Dims); i++ {
		sa += a.Weights[i]
		union++
	}
	for ; j < len(b.Dims); j++ {
		sb += b.Weights[j]
		union++
	}
	n := float64(union)
	if n < 2 {
		return 0
	}
	ma, mb := sa/n, sb/n
	// Second merge pass: centered covariance and variances over the union.
	var cov, va, vb float64
	acc := func(wa, wb float64) {
		da, db := wa-ma, wb-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	i, j = 0, 0
	for i < len(a.Dims) && j < len(b.Dims) {
		da, db := a.Dims[i], b.Dims[j]
		switch {
		case da == db:
			acc(a.Weights[i], b.Weights[j])
			i++
			j++
		case da < db:
			acc(a.Weights[i], 0)
			i++
		default:
			acc(0, b.Weights[j])
			j++
		}
	}
	for ; i < len(a.Dims); i++ {
		acc(a.Weights[i], 0)
	}
	for ; j < len(b.Dims); j++ {
		acc(0, b.Weights[j])
	}
	if va == 0 || vb == 0 {
		return 0
	}
	// Rounding can push r just outside [-1, 1] for exactly (anti-)
	// correlated vectors; clamp so the similarity stays in [0, 1].
	r := cov / math.Sqrt(va*vb)
	return min(max((r+1)/2, 0), 1)
}
