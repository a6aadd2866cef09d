// Package sphere implements the sphere neighborhood context model of §3.4:
// XML rings and spheres (Definitions 4–5), weighted context vectors
// (Definitions 6–7), and their semantic-network analogues used by
// context-based disambiguation (§3.5.2).
//
// Convention: following the paper's worked example (Figure 7, vector
// V1(T[2])), the sphere S_d(x) includes its center x at distance 0; the
// center's label therefore appears as a vector dimension with maximal
// structural proximity. (The paper's V2(T[2]) numbers use |S|+1 = 8, an
// off-by-one inconsistent with V1; we follow the V1 arithmetic, which also
// keeps weights in [0,1]. See EXPERIMENTS.md.)
package sphere

import (
	"slices"
	"sort"

	"repro/internal/semnet"
	"repro/internal/xmltree"
)

// Member is one node of a sphere neighborhood together with its distance
// from the center.
type Member struct {
	Node *xmltree.Node
	Dist int
}

// Ring returns R_d(x): the nodes located exactly at distance d from x
// (Definition 4), in preorder. It walks the BFS once and keeps only the
// final frontier instead of materializing and sorting the whole sphere.
func Ring(x *xmltree.Node, d int) []*xmltree.Node {
	if d == 0 {
		return []*xmltree.Node{x}
	}
	seen := map[*xmltree.Node]struct{}{x: {}}
	frontier := []*xmltree.Node{x}
	for depth := 1; depth <= d; depth++ {
		var next []*xmltree.Node
		for _, cur := range frontier {
			expand(cur, false, func(nb *xmltree.Node) {
				if _, dup := seen[nb]; dup {
					return
				}
				seen[nb] = struct{}{}
				next = append(next, nb)
			})
		}
		frontier = next
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i].Index < frontier[j].Index })
	return frontier
}

// expand visits the sphere-adjacent nodes of cur in the canonical order
// (parent, children, then — when links is set — hyperlink anchors). Tree
// and graph spheres, rings, and vectors all deduplicate through this one
// adjacency, so the two BFS variants cannot drift apart.
func expand(cur *xmltree.Node, links bool, visit func(*xmltree.Node)) {
	if cur.Parent != nil {
		visit(cur.Parent)
	}
	for _, c := range cur.Children {
		visit(c)
	}
	if links {
		for _, l := range cur.Links {
			visit(l)
		}
	}
}

// Sphere returns S_d(x): all nodes within distance d of x, center included
// at distance 0 (Definition 5). Members are ordered by distance, then
// preorder index, making iteration deterministic.
func Sphere(x *xmltree.Node, d int) []Member {
	var s Scratch
	return SphereInto(x, d, false, &s)
}

// Scratch holds the reusable buffers of the sphere BFS so a caller scoring
// many nodes (the disambiguation hot loop) performs no steady-state
// allocation: the visited map is cleared and reused, member and frontier
// slices keep their capacity. The zero value is ready to use. Not safe for
// concurrent use; each worker owns its own Scratch.
type Scratch struct {
	dist     map[*xmltree.Node]int
	frontier []*xmltree.Node
	next     []*xmltree.Node
	members  []Member
}

// SphereInto is Sphere (links=false) or GraphSphere (links=true) into
// reusable scratch buffers. The returned slice aliases the scratch and is
// valid until the next call with the same Scratch.
func SphereInto(x *xmltree.Node, d int, links bool, s *Scratch) []Member {
	if s.dist == nil {
		s.dist = make(map[*xmltree.Node]int)
	} else {
		clear(s.dist)
	}
	s.dist[x] = 0
	s.frontier = append(s.frontier[:0], x)
	s.members = append(s.members[:0], Member{Node: x, Dist: 0})
	for depth := 1; depth <= d; depth++ {
		s.next = s.next[:0]
		for _, cur := range s.frontier {
			// Same adjacency and order as expand (parent, children,
			// links), written out so the hot loop allocates no closures.
			if p := cur.Parent; p != nil {
				s.visit(p, depth)
			}
			for _, c := range cur.Children {
				s.visit(c, depth)
			}
			if links {
				for _, l := range cur.Links {
					s.visit(l, depth)
				}
			}
		}
		s.frontier, s.next = s.next, s.frontier
	}
	slices.SortFunc(s.members, func(a, b Member) int {
		if a.Dist != b.Dist {
			return a.Dist - b.Dist
		}
		return a.Node.Index - b.Node.Index
	})
	return s.members
}

// visit adds nb to the sphere at the given depth unless already seen.
func (s *Scratch) visit(nb *xmltree.Node, depth int) {
	if _, seen := s.dist[nb]; seen {
		return
	}
	s.dist[nb] = depth
	s.members = append(s.members, Member{Node: nb, Dist: depth})
	s.next = append(s.next, nb)
}

// Struct returns the structural proximity factor of Definition 7 (Eq. 7):
//
//	Struct(x_i, S_d(x)) = 1 - Dist(x, x_i)/(d+1)  ∈ [1/(d+1), 1]
func Struct(dist, d int) float64 {
	return 1 - float64(dist)/float64(d+1)
}

// ContextVector builds V_d(x), the weighted context vector of target node x
// with sphere radius d (Definitions 6–7). Dimensions are the distinct node
// labels in S_d(x) resolved through voc; the weight of label ℓ is
//
//	w(ℓ) = 2·Freq(ℓ, S_d(x)) / (|S_d(x)| + 1)
//
// with Freq the structural-proximity-weighted occurrence count (Eq. 6).
func ContextVector(x *xmltree.Node, d int, voc Vocab) Vector {
	return VectorFromMembers(Sphere(x, d), d, voc)
}

// ConceptScratch holds the reusable buffers of dense concept-sphere BFS
// and vector construction: stamped visited/distance arrays sized to the
// network, emission-order member lists, and the shared vector fold
// buffers. The zero value is ready to use; it sizes itself to the network
// on first use and is not safe for concurrent use.
type ConceptScratch struct {
	stamp    uint32
	visitedA []uint32
	distA    []int32
	visitedB []uint32
	distB    []int32
	queue    []int32
	idsA     []int32 // BFS emission order (dist ascending, frontier order)
	idsB     []int32
	vec      VecScratch
}

func (s *ConceptScratch) ensure(n int) {
	if len(s.visitedA) < n {
		s.visitedA = make([]uint32, n)
		s.distA = make([]int32, n)
		s.visitedB = make([]uint32, n)
		s.distB = make([]int32, n)
	}
	s.stamp++
	if s.stamp == 0 { // stamp wrapped: invalidate all stale marks
		clear(s.visitedA)
		clear(s.visitedB)
		s.stamp = 1
	}
}

// bfs runs the dense neighborhood walk from c over all relation kinds,
// stamping visited/dist and appending reached ids (center included at
// distance 0) to ids in emission order — distance ascending, and within a
// ring the deterministic frontier order fixed by the frozen edge lists.
func (s *ConceptScratch) bfs(net *semnet.Network, c semnet.DenseID, d int, visited []uint32, dist []int32, ids []int32) []int32 {
	visited[c] = s.stamp
	dist[c] = 0
	ids = append(ids[:0], c)
	s.queue = append(s.queue[:0], c)
	head := 0
	for head < len(s.queue) {
		cur := s.queue[head]
		head++
		nd := dist[cur] + 1
		if nd > int32(d) {
			break
		}
		for _, e := range net.EdgesDense(cur) {
			if visited[e.To] == s.stamp {
				continue
			}
			visited[e.To] = s.stamp
			dist[e.To] = nd
			ids = append(ids, e.To)
			s.queue = append(s.queue, e.To)
		}
	}
	return ids
}

// ConceptVectorInto builds V_d(s) — the context vector of a concept
// (sense) in the semantic network, same weight formula as ContextVector
// with concept primary labels as dimensions — into reusable scratch. The
// result aliases the scratch.
func ConceptVectorInto(net *semnet.Network, c semnet.DenseID, d int, s *ConceptScratch) Vector {
	s.ensure(net.Index().Len())
	s.idsA = s.bfs(net, c, d, s.visitedA, s.distA, s.idsA)
	s.vec.pairs = s.vec.pairs[:0]
	for _, id := range s.idsA {
		s.vec.pairs = append(s.vec.pairs, dimWeight{
			dim: net.LabelDense(id),
			w:   Struct(int(s.distA[id]), d),
		})
	}
	return s.vec.fold(float64(len(s.idsA) + 1))
}

// CombinedConceptVectorInto builds V_d(s_p, s_q) for the compound-label
// special case (Eq. 12): the sphere neighborhoods of the individual senses
// are unioned (keeping the smaller distance on overlap) before vector
// construction. The result aliases the scratch.
func CombinedConceptVectorInto(net *semnet.Network, p, q semnet.DenseID, d int, s *ConceptScratch) Vector {
	s.ensure(net.Index().Len())
	s.idsA = s.bfs(net, p, d, s.visitedA, s.distA, s.idsA)
	s.idsB = s.bfs(net, q, d, s.visitedB, s.distB, s.idsB)
	s.vec.pairs = s.vec.pairs[:0]
	size := 0
	for _, id := range s.idsA {
		dist := s.distA[id]
		if s.visitedB[id] == s.stamp && s.distB[id] < dist {
			dist = s.distB[id]
		}
		s.vec.pairs = append(s.vec.pairs, dimWeight{dim: net.LabelDense(id), w: Struct(int(dist), d)})
		size++
	}
	for _, id := range s.idsB {
		if s.visitedA[id] == s.stamp {
			continue // already merged above with min distance
		}
		s.vec.pairs = append(s.vec.pairs, dimWeight{dim: net.LabelDense(id), w: Struct(int(s.distB[id]), d)})
		size++
	}
	return s.vec.fold(float64(size + 1))
}
