package disambig

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/semnet"
	"repro/internal/sphere"
	"repro/internal/xmltree"
)

// matrixCap bounds the document word matrix in cells (8 bytes each).
// Above it a document reads the shared word memo directly.
const matrixCap = 64 << 10

// docTable is the document path's resolved view of one tree: every node
// at its preorder position with integer adjacency, its label's vector
// dimension, and one lemma id per token, so scoring a target hashes no
// strings and walks no pointers. ApplyReport builds one per run and its
// node workers share it read-only, except for the word matrix, whose
// cells are atomic.
//
// Scores stay bit-identical with the per-node build: members come out of
// the integer BFS in the same (distance, preorder) order, pairs enter the
// vector fold in member order, and labels unknown to the network are
// ranked across the document instead of across each sphere — the same
// relative order, above every known dimension, so the sorted dimensions
// and every float sum are unchanged and no unknown dimension matches a
// concept-vector dimension.
type docTable struct {
	nodes  []*xmltree.Node  // by preorder position
	graph  sphere.Adjacency // parent, children, then link anchors
	dims   []int32          // label dimension per position, -1 for the empty label
	lemOff []int32          // position i's tokens are lemmas[lemOff[i]:lemOff[i+1]]
	lemmas []int32          // label id per token, -1 when unknown or dropped
	cols   []int32          // per token: its lemma's matrix column, -1 when unknown
	rows   []int32          // per column: first matrix row of the lemma's senses, -1 if none
	cells  []atomic.Uint64  // Definition 8's per-word maxima, rows × ncols; empty above matrixCap
	ncols  int
	ndims  int             // NumLabels plus the document's distinct unknown labels
	stack  []*xmltree.Node // build scratch: preorder walk
	keys   []uint64        // build scratch: (lemma, token) sort keys
	unk    []int32         // build scratch: positions with unknown labels
}

var docTablePool = sync.Pool{New: func() any { return new(docTable) }}

// docTableFor builds the table of the tree holding targets, or returns nil
// when the run scores through the per-node path: in bypass mode (the
// per-node build is the oracle), for an empty run, and for a tree the
// table cannot represent — one whose Index fields are not the preorder
// ranks (mutated without Reindex) or whose followed links leave it.
func (d *Disambiguator) docTableFor(targets []*xmltree.Node) *docTable {
	if d.bypassCache || len(targets) == 0 {
		return nil
	}
	root := targets[0]
	for root.Parent != nil {
		root = root.Parent
	}
	t := docTablePool.Get().(*docTable)
	if !t.resolveShape(root, d.opts.FollowLinks) {
		t.release()
		return nil
	}
	t.resolveLabels(d)
	t.resolveMatrix(d.net, targets)
	return t
}

// release returns the table to the pool without the tree it referenced
// (popped walk entries stay in the stack's backing array, hence the
// clear up to capacity).
func (t *docTable) release() {
	if t == nil {
		return
	}
	clear(t.nodes[:cap(t.nodes)])
	clear(t.stack[:cap(t.stack)])
	t.nodes, t.stack = t.nodes[:0], t.stack[:0]
	docTablePool.Put(t)
}

// position returns x's table position, false when x is not in the table
// (no table, or a target from another tree).
func (t *docTable) position(x *xmltree.Node) (int32, bool) {
	if t == nil || x.Index < 0 || x.Index >= len(t.nodes) || t.nodes[x.Index] != x {
		return 0, false
	}
	return int32(x.Index), true
}

// resolveShape walks the tree in preorder, checking that every Index is
// its preorder rank, and builds the sphere adjacency in SphereInto's
// order: parent, children, then (with links) hyperlink anchors.
func (t *docTable) resolveShape(root *xmltree.Node, links bool) bool {
	t.nodes = t.nodes[:0]
	t.stack = append(t.stack[:0], root)
	for len(t.stack) > 0 {
		n := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		if n.Index != len(t.nodes) {
			return false
		}
		t.nodes = append(t.nodes, n)
		for i := len(n.Children) - 1; i >= 0; i-- {
			t.stack = append(t.stack, n.Children[i])
		}
	}
	g := &t.graph
	g.Off = append(g.Off[:0], 0)
	g.Adj = g.Adj[:0]
	for _, n := range t.nodes {
		if n.Parent != nil {
			p, ok := t.position(n.Parent)
			if !ok {
				return false
			}
			g.Adj = append(g.Adj, p)
		}
		for _, c := range n.Children {
			g.Adj = append(g.Adj, int32(c.Index))
		}
		if links {
			for _, l := range n.Links {
				p, ok := t.position(l)
				if !ok {
					return false
				}
				g.Adj = append(g.Adj, p)
			}
		}
		g.Off = append(g.Off, int32(len(g.Adj)))
	}
	return true
}

// resolveLabels fills the label dimensions and the token lemma ids. Each
// token's lemma lookup — and so the DropLookup fault point — runs once
// per document here: a dropped token is unknown in every role within the
// document.
func (t *docTable) resolveLabels(d *Disambiguator) {
	t.dims = t.dims[:0]
	t.unk = t.unk[:0]
	t.lemOff = append(t.lemOff[:0], 0)
	t.lemmas = t.lemmas[:0]
	for pos, n := range t.nodes {
		dim := int32(-1)
		if n.Label != "" {
			if id, ok := d.net.LabelID(n.Label); ok {
				dim = id
			} else {
				t.unk = append(t.unk, int32(pos))
			}
		}
		t.dims = append(t.dims, dim)
		t.lemmas = d.appendLemmas(t.lemmas, n)
		t.lemOff = append(t.lemOff, int32(len(t.lemmas)))
	}
	// Unknown labels: dimension NumLabels + rank among the document's
	// distinct unknown labels.
	slices.SortFunc(t.unk, func(a, b int32) int { return strings.Compare(t.nodes[a].Label, t.nodes[b].Label) })
	dim := int32(d.net.NumLabels()) - 1
	for i, pos := range t.unk {
		if i == 0 || t.nodes[pos].Label != t.nodes[t.unk[i-1]].Label {
			dim++
		}
		t.dims[pos] = dim
	}
	t.ndims = int(dim) + 1
}

// resolveMatrix gives each distinct known lemma of the document a matrix
// column and each lemma a target may be sensed by (the first two tokens)
// a block of rows, one per sense, then sizes the matrix. Cells start
// empty and are filled from the shared word memo on first read.
func (t *docTable) resolveMatrix(net *semnet.Network, targets []*xmltree.Node) {
	t.keys = t.keys[:0]
	for i, l := range t.lemmas {
		if l >= 0 {
			t.keys = append(t.keys, uint64(l)<<32|uint64(i))
		}
	}
	slices.Sort(t.keys)
	t.cols = t.cols[:0]
	for range t.lemmas {
		t.cols = append(t.cols, -1)
	}
	t.ncols = 0
	for i, k := range t.keys {
		if i > 0 && k>>32 != t.keys[i-1]>>32 {
			t.ncols++
		}
		t.cols[uint32(k)] = int32(t.ncols)
	}
	if len(t.keys) > 0 {
		t.ncols++
	}
	t.rows = t.rows[:0]
	for range t.ncols {
		t.rows = append(t.rows, -1)
	}
	nrows := 0
	for _, x := range targets {
		p, ok := t.position(x)
		if !ok {
			continue
		}
		for i := t.lemOff[p]; i < t.lemOff[p+1] && i < t.lemOff[p]+2; i++ {
			if c := t.cols[i]; c >= 0 && t.rows[c] < 0 {
				t.rows[c] = int32(nrows)
				nrows += len(net.LemmaSensesDense(t.lemmas[i]))
			}
		}
	}
	n := 0
	if t.ncols > 0 && nrows <= matrixCap/t.ncols {
		n = nrows * t.ncols
	}
	if cap(t.cells) < n {
		t.cells = make([]atomic.Uint64, n)
	}
	t.cells = t.cells[:n]
	clear(t.cells)
}

// readings returns the candidate readings of the target at p from its
// token lemmas, each with the matrix row of its first sense.
func (t *docTable) readings(net *semnet.Network, p int32) (tok0, tok1 reading, compound bool) {
	i := t.lemOff[p]
	tok0 = t.reading(net, i)
	if t.lemOff[p+1]-i >= 2 {
		return tok0, t.reading(net, i+1), true
	}
	return tok0, reading{row: -1}, false
}

func (t *docTable) reading(net *semnet.Network, i int32) reading {
	l := t.lemmas[i]
	if l < 0 {
		return reading{row: -1}
	}
	r := reading{senses: net.LemmaSensesDense(l), row: -1}
	if len(t.cells) > 0 {
		r.row = t.rows[t.cols[i]]
	}
	return r
}

// contextAt builds the sphere context of the target at p into s: the
// integer BFS, the fold over the table's dimensions, the vector scattered
// into the scratch's dense array (which must be all zero; the caller
// clears it with sphere.Unscatter when the target is scored), and context
// nodes pointing into the table's lemma ranges, each weight read from the
// dense array. The result aliases s and t.
func (t *docTable) contextAt(p int32, radius int, s *ctxScratch) *preparedContext {
	members := sphere.SphereAt(t.graph, p, radius, &s.pos)
	pc := &s.pc
	pc.vec = normed(sphere.VectorFromDimsInto(members, t.dims, radius, &s.vec))
	pc.size = len(members)
	pc.lemmas, pc.tab, pc.tally = t.lemmas, t, &s.tally
	if len(pc.dense) < t.ndims {
		pc.dense = make([]float64, t.ndims)
	}
	sphere.Scatter(pc.dense, pc.vec.Vector)
	pc.ctx = pc.ctx[:0]
	for _, m := range members[1:] { // members[0] is the center
		var w float64
		if dim := t.dims[m.Pos]; dim >= 0 {
			w = pc.dense[dim]
		}
		pc.ctx = append(pc.ctx, contextNode{weight: w, lemmaStart: t.lemOff[m.Pos], lemmaEnd: t.lemOff[m.Pos+1]})
	}
	return pc
}

// cell returns the matrix cell of (the candidate sense at row, the context
// token at i), nil off the matrix.
func (pc *preparedContext) cell(row, i int32) *atomic.Uint64 {
	if row < 0 {
		return nil
	}
	t := pc.tab
	return &t.cells[int(row)*t.ncols+int(t.cols[i])]
}
