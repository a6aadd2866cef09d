package simmeasure

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/semnet"
)

// glossSaturation controls how quickly the raw extended-gloss-overlap score
// saturates toward 1: a single shared word scores 1/(1+K) while a shared
// three-word phrase (9 points) already reaches 9/(9+K). Banerjee-Pedersen's
// raw score is unbounded; this hyperbolic squashing is the "normalized
// extension" the paper calls for, and keeps the measure comparable in
// magnitude to the edge- and node-based measures it is combined with.
const glossSaturation = 8.0

// glossDense is the normalized extended gloss overlap Sim_Gloss over dense
// ids: the glosses of each concept are expanded with the glosses of its
// directly related concepts, maximal shared phrases are scored
// quadratically (a phrase of n consecutive shared words scores n²), and
// the raw score is squashed into [0, 1) by raw/(raw+K). The overlap's
// tie-break depends on the argument order (d1's gloss gives the rows), so
// callers that need a symmetric value canonicalize the pair first.
func glossDense(net *semnet.Network, d1, d2 semnet.DenseID) float64 {
	raw := glossOverlap(net.GlossOccurrencesDense(d1), net.GlossOccurrencesDense(d2))
	return raw / (raw + glossSaturation)
}

// glossRow is a row of the overlap grid that holds matches: a position of
// the first gloss whose token occurs in the second, and the range of the
// second gloss's occurrence list holding that token, whose ascending
// positions are the row's matching columns.
type glossRow struct {
	pos, lo, hi int32
	removed     bool // the position belongs to an already scored phrase
}

// glossCell is a live match cell of a row: its column and the length of
// the common run ending there.
type glossCell struct{ col, run int32 }

// glossScratch is the working memory of one glossOverlap call, all of it
// O(|a|+|b|): the matched rows, the removed-column flags of the second
// gloss, and the live cells of the previous and current row.
type glossScratch struct {
	rows       []glossRow
	removedCol []bool
	prev, cur  []glossCell
}

var glossPool = sync.Pool{New: func() any { return new(glossScratch) }}

// glossOverlap computes the extended-gloss-overlap raw score of two
// expanded glosses given as occurrence lists (GlossOccurrencesDense):
// repeatedly find the longest common run of consecutive tokens, add its
// squared length, remove its positions from both glosses, until no common
// token remains.
//
// The result equals the longest-common-substring dynamic program over the
// |a|×|b| grid (a's positions are rows, b's columns) bit for bit, because
// it runs the same greedy over the grid's match cells only. A merge-join
// of the two token-sorted lists yields each matched row with the range of
// b holding its token; rows are then visited in position order and their
// columns in ascending order, a cell's run extending the run of cell
// (row-1, col-1) found by a merge over the previous row's live cells. Each
// round takes the first cell in row-major order that reaches the longest
// run — the dynamic program's strict ">" — and the float additions happen
// in the same order. Match cells are never stored beyond two rows, so a
// pathological gloss costs time but no more than O(|a|+|b|) memory.
func glossOverlap(a, b []semnet.GlossOcc) float64 {
	var s *glossScratch
	var rows []glossRow
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch ta, tb := a[i].Tok, b[j].Tok; {
		case ta < tb:
			i++
		case ta > tb:
			j++
		default:
			if s == nil {
				s = glossPool.Get().(*glossScratch)
				rows = s.rows[:0]
			}
			hi := j + 1
			for hi < len(b) && b[hi].Tok == ta {
				hi++
			}
			for ; i < len(a) && a[i].Tok == ta; i++ {
				rows = append(rows, glossRow{pos: a[i].Pos, lo: int32(j), hi: int32(hi)})
			}
			j = hi
		}
	}
	if s == nil {
		return 0 // the common case: the glosses share no token
	}
	slices.SortFunc(rows, func(x, y glossRow) int { return cmp.Compare(x.pos, y.pos) })
	removedCol := slices.Grow(s.removedCol[:0], len(b))[:len(b)]
	clear(removedCol)
	prev, cur := s.prev, s.cur

	var score float64
	for {
		best, bestRow, bestCol := int32(0), 0, int32(0)
		prev = prev[:0]
		prevPos := int32(-2) // position of the row whose live cells prev holds
		for r := range rows {
			row := &rows[r]
			if row.removed {
				continue
			}
			chain := row.pos == prevPos+1
			cur = cur[:0]
			p := 0
			for _, o := range b[row.lo:row.hi] {
				col := o.Pos
				if removedCol[col] {
					continue
				}
				run := int32(1)
				if chain {
					for p < len(prev) && prev[p].col < col-1 {
						p++
					}
					if p < len(prev) && prev[p].col == col-1 {
						run += prev[p].run
					}
				}
				cur = append(cur, glossCell{col: col, run: run})
				if run > best {
					best, bestRow, bestCol = run, r, col
				}
			}
			prev, cur = cur, prev
			prevPos = row.pos
		}
		if best == 0 {
			break
		}
		l := int(best)
		score += float64(l * l)
		// The phrase's rows are consecutive positions, all matched, so
		// they are the l entries of rows ending at bestRow.
		for k := bestRow - l + 1; k <= bestRow; k++ {
			rows[k].removed = true
		}
		for c := bestCol - best + 1; c <= bestCol; c++ {
			removedCol[c] = true
		}
	}
	s.rows, s.removedCol, s.prev, s.cur = rows, removedCol, prev, cur
	glossPool.Put(s)
	return score
}
