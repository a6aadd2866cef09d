package sphere

import (
	"cmp"
	"slices"
)

// Adjacency is a sphere graph over node positions in compressed-row form:
// the neighbors of position i are Adj[Off[i]:Off[i+1]]. A caller scoring
// every node of one document resolves the tree once into positions (its
// preorder ranks, with hyperlink anchors appended when links are
// followed) and runs each sphere BFS on integers instead of node
// pointers.
type Adjacency struct {
	Off []int32 // len = positions + 1
	Adj []int32
}

// PosMember is one member of a sphere over positions: its position and
// its distance from the center.
type PosMember struct {
	Pos  int32
	Dist int32
}

// PosScratch holds the reusable buffers of SphereAt: a visited stamp per
// position and the member list. The zero value is ready to use; it grows
// to the largest graph it has walked and is not safe for concurrent use.
type PosScratch struct {
	seen    []uint32
	stamp   uint32
	members []PosMember
}

// begin readies the stamps for a walk over n positions.
func (s *PosScratch) begin(n int) {
	if len(s.seen) < n {
		s.seen = make([]uint32, n)
		s.stamp = 0
	}
	s.stamp++
	if s.stamp == 0 { // stamp wrapped: invalidate all stale marks
		clear(s.seen)
		s.stamp = 1
	}
}

// SphereAt returns S_d(p) over g: every position within distance d of p,
// the center included at distance 0, ordered by distance, then position.
// When positions are preorder ranks that is SphereInto's order, and the
// membership is the same because both walk the same adjacency
// breadth-first. The result aliases the scratch and is valid until its
// next use.
func SphereAt(g Adjacency, p int32, d int, s *PosScratch) []PosMember {
	s.begin(len(g.Off) - 1)
	s.seen[p] = s.stamp
	s.members = append(s.members[:0], PosMember{Pos: p})
	ring := 0 // members[ring:] is the last ring, the next frontier
	for dist := int32(1); dist <= int32(d); dist++ {
		end := len(s.members)
		for i := ring; i < end; i++ {
			cur := s.members[i].Pos
			for _, nb := range g.Adj[g.Off[cur]:g.Off[cur+1]] {
				if s.seen[nb] == s.stamp {
					continue
				}
				s.seen[nb] = s.stamp
				s.members = append(s.members, PosMember{Pos: nb, Dist: dist})
			}
		}
		if len(s.members) == end {
			break
		}
		slices.SortFunc(s.members[end:], func(a, b PosMember) int { return cmp.Compare(a.Pos, b.Pos) })
		ring = end
	}
	return s.members
}
