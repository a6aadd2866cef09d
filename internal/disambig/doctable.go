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

// matrixCap bounds the document word matrix and the sense rows, each in
// cells (8 bytes each). Above it a document reads the shared memos
// directly.
const matrixCap = 64 << 10

// docTable is the document path's resolved view of one tree: every node
// at its preorder position with integer adjacency, its label's vector
// dimension, and one lemma id per token, so scoring a target hashes no
// strings and walks no pointers. ApplyReport builds one per run and its
// node workers share it read-only, except for the word matrix, whose
// cells are atomic, and the sense rows, which are filled once each under
// a lock.
//
// The document's distinct label dimensions are numbered 0, 1, … in
// ascending order: the local dimensions. A target's context vector is
// folded over them, and each candidate sense's concept vector is read
// once per document into a row over them, so a cosine is a dot product
// over the target's few context dimensions.
//
// Scores stay bit-identical with the per-node build: members come out of
// the integer BFS in the same (distance, preorder) order, weights are
// folded in member order, and labels unknown to the network are ranked
// across the document instead of across each sphere — the same relative
// order, above every known dimension, so the sorted dimensions and every
// float sum are unchanged and no unknown dimension matches a
// concept-vector dimension.
type docTable struct {
	nodes  []*xmltree.Node  // by preorder position
	graph  sphere.Adjacency // parent, children, then link anchors
	dims   []int32          // label dimension per position, -1 for the empty label
	ldims  []int32          // label dimension per local dimension, ascending
	gl     []int32          // local dimension per label dimension, -1 outside ldims
	lemOff []int32          // position i's tokens are lemmas[lemOff[i]:lemOff[i+1]]
	lemmas []int32          // label id per token, -1 when unknown or dropped
	cols   []int32          // per token: its lemma's matrix column, -1 when unknown
	rows   []int32          // per column: first matrix row of the lemma's senses, -1 if none
	cells  []atomic.Uint64  // Definition 8's per-word maxima, rows × ncols; empty above matrixCap
	ncols  int

	// Sense rows: row r holds the concept vector of the sense at matrix
	// row r over the local dimensions, with its squared norm, once ready.
	// Empty without a matrix, above matrixCap, and when no target reads
	// them (concept-based scoring, or a measure other than cosine).
	srows  []float64
	snorm  []float64
	sready []atomic.Bool
	smu    sync.Mutex // serializes sense-row fills

	stack []*xmltree.Node // build scratch: preorder walk
	keys  []uint64        // build scratch: (lemma, token) sort keys
	unk   []int32         // build scratch: positions with unknown labels
}

var docTablePool = sync.Pool{New: func() any { return new(docTable) }}

// docTableFor builds the table of the tree holding targets, or returns nil
// when the run builds every context per node: for an empty run, and for a
// tree the table cannot represent — one whose Index fields are not the
// preorder ranks (mutated without Reindex) or whose followed links leave
// it.
func (d *Disambiguator) docTableFor(targets []*xmltree.Node) *docTable {
	if len(targets) == 0 {
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
	t.resolveMatrix(d.net, targets, d.opts.Method != ConceptBased && d.opts.VectorSim == nil)
	return t
}

// release returns the table to the pool without the tree it referenced
// (popped walk entries stay in the stack's backing array, hence the
// clear up to capacity), and with gl all -1 again.
func (t *docTable) release() {
	if t == nil {
		return
	}
	clear(t.nodes[:cap(t.nodes)])
	clear(t.stack[:cap(t.stack)])
	t.nodes, t.stack = t.nodes[:0], t.stack[:0]
	for _, dim := range t.ldims {
		t.gl[dim] = -1
	}
	t.ldims = t.ldims[:0]
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

// resolveLabels fills the label and local dimensions and the token lemma
// ids. Each token's lemma lookup — and so the DropLookup fault point —
// runs once per document here: a dropped token is unknown in every role
// within the document.
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
	// Local dimensions: the distinct label dimensions in ascending order,
	// collected with gl as the seen mark.
	if n := int(dim) + 1; len(t.gl) < n {
		t.gl = make([]int32, n)
		for i := range t.gl {
			t.gl[i] = -1
		}
	}
	for _, dim := range t.dims {
		if dim >= 0 && t.gl[dim] == -1 {
			t.gl[dim] = 0
			t.ldims = append(t.ldims, dim)
		}
	}
	slices.Sort(t.ldims)
	for l, dim := range t.ldims {
		t.gl[dim] = int32(l)
	}
}

// resolveMatrix gives each distinct known lemma of the document a matrix
// column and each lemma a target may be sensed by (the first two tokens)
// a block of rows, one per sense, then sizes the matrix and, when
// senseRows is set, the sense rows. Cells and rows start empty and are
// filled from the shared memos on first read.
func (t *docTable) resolveMatrix(net *semnet.Network, targets []*xmltree.Node, senseRows bool) {
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
	if !senseRows || n == 0 || nrows*len(t.ldims) > matrixCap {
		nrows = 0
	}
	t.srows = slices.Grow(t.srows[:0], nrows*len(t.ldims))[:nrows*len(t.ldims)]
	t.snorm = slices.Grow(t.snorm[:0], nrows)[:nrows]
	if cap(t.sready) < nrows {
		t.sready = make([]atomic.Bool, nrows)
	}
	t.sready = t.sready[:nrows]
	clear(t.sready)
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
// integer BFS, then the fold of each member's structural weight into the
// scratch's accumulator at the member's local dimension, in member order.
// The accumulator must be all zero, and is all zero again on return. The
// result aliases s and t.
func (t *docTable) contextAt(p int32, radius int, s *ctxScratch) *targetContext {
	members := sphere.SphereAt(t.graph, p, radius, &s.pos)
	if len(s.acc) < len(t.ldims) {
		s.acc = make([]float64, len(t.ldims))
	}
	acc, tc := s.acc, &s.dc
	locs := tc.local.Dims[:0]
	for _, m := range members {
		dim := t.dims[m.Pos]
		if dim < 0 {
			continue
		}
		l := t.gl[dim]
		if acc[l] == 0 { // structural weights are > 0: a new dimension
			// Insert l in order; a context has a handful of dimensions.
			i := len(locs)
			locs = append(locs, l)
			for ; i > 0 && locs[i-1] > l; i-- {
				locs[i] = locs[i-1]
			}
			locs[i] = l
		}
		acc[l] += sphere.Struct(int(m.Dist), radius)
	}
	norm := float64(len(members) + 1)
	dims, weights := tc.vec.Dims[:0], tc.local.Weights[:0]
	for _, l := range locs {
		acc[l] = 2 * acc[l] / norm
		dims = append(dims, t.ldims[l])
		weights = append(weights, acc[l])
	}
	tc.local = sphere.Vector{Dims: locs, Weights: weights}
	tc.vec = normed(sphere.Vector{Dims: dims, Weights: weights})
	tc.size = len(members)
	tc.ctx = tc.ctx[:0]
	for _, m := range members[1:] { // members[0] is the center
		var w float64
		if dim := t.dims[m.Pos]; dim >= 0 {
			w = acc[t.gl[dim]]
		}
		tc.ctx = append(tc.ctx, contextNode{weight: w, lemmaStart: t.lemOff[m.Pos], lemmaEnd: t.lemOff[m.Pos+1]})
	}
	for _, l := range locs {
		acc[l] = 0
	}
	tc.lemmas = t.lemmas
	return tc
}

// senseRow returns the sense row of the sense at matrix row row and the
// squared norm of its concept vector, filling the row on first use: under
// the lock, the first worker to find it empty reads the vector from the
// memo (counted in tl) and copies it over the local dimensions, so each
// row costs one memo read per document however the targets are spread
// over node workers.
func (t *docTable) senseRow(d *Disambiguator, row int32, sense semnet.DenseID, tl *cacheTally) ([]float64, float64) {
	n := len(t.ldims)
	r := t.srows[int(row)*n : int(row+1)*n]
	if !t.sready[row].Load() {
		t.smu.Lock()
		if !t.sready[row].Load() {
			cv := d.conceptVectorD(sense, tl)
			clear(r)
			for j, dim := range cv.Dims {
				if l := t.gl[dim]; l >= 0 {
					r[l] = cv.Weights[j]
				}
			}
			t.snorm[row] = cv.norm2
			t.sready[row].Store(true)
		}
		t.smu.Unlock()
	}
	return r, t.snorm[row]
}

// scoreTarget is the one scoring path of Node, Candidates and
// ApplyReport: it scores every candidate of target x under method. The
// readings and the sphere context come from the document table t when x
// is in it, from the per-node build otherwise (t nil, or x outside it). A
// lone single-sense reading needs no context and scores 1 (Assumption 4:
// monosemous labels are unambiguous); any other is scored in one block —
// one pass over the context for the concept leg, one vector comparison
// per candidate for the context leg. Each score has the bits of its
// formula evaluated for that candidate alone: every sum keeps its
// operands and their order (member order, token order, ascending
// dimensions). It returns the picked readings and their candidates'
// scores in candidate order (candidateAt), aliasing s; ok is false when
// no token of the label is known.
func (d *Disambiguator) scoreTarget(x *xmltree.Node, t *docTable, method Method, s *ctxScratch) (a, b reading, scores []float64, ok bool) {
	p, inTable := t.position(x)
	if inTable {
		a, b, ok = pick(t.readings(d.net, p))
	} else {
		a, b, ok = pick(d.readings(x))
	}
	if !ok {
		return a, b, nil, false
	}
	if len(b.senses) == 0 && len(a.senses) == 1 {
		s.scores = append(s.scores[:0], 1)
		return a, b, s.scores, true
	}
	var tc *targetContext
	if inTable {
		tc = t.contextAt(p, d.opts.Radius, s)
	} else {
		tc = d.buildContextInto(x, s)
	}
	n := len(a.senses) * max(1, len(b.senses))
	s.scores = slices.Grow(s.scores[:0], n)[:n]
	switch method {
	case ConceptBased:
		d.conceptBlock(t, a, b, tc, s, s.scores)
	case ContextBased:
		d.contextBlock(t, a, b, tc, &s.tally, s.scores)
	default:
		s.ctxScores = slices.Grow(s.ctxScores[:0], n)[:n]
		d.conceptBlock(t, a, b, tc, s, s.scores)
		d.contextBlock(t, a, b, tc, &s.tally, s.ctxScores)
		wc, wx := d.mixWeights()
		for k, v := range s.ctxScores {
			s.scores[k] = wc*s.scores[k] + wx*v
		}
	}
	return a, b, s.scores, true
}

// conceptBlock writes Concept_Score (Definition 8, Eq. 10 for sense
// pairs) of every candidate to out, in candidate order. It walks each
// context member's known tokens once, adding the token's word maximum for
// every sense of a and b into per-sense sums, then folds the member's
// per-sense averages into each candidate's total. Per candidate every sum
// keeps the per-candidate formula's operands and order (member order,
// token order): the sums start at +0 (so are never −0 and 0 + x is x)
// and x/1 is x.
func (d *Disambiguator) conceptBlock(t *docTable, a, b reading, tc *targetContext, s *ctxScratch, out []float64) {
	clear(out)
	na, nb := len(a.senses), len(b.senses)
	s.sims = slices.Grow(s.sims[:0], na+nb)[:na+nb]
	sims := s.sims
	for _, cn := range tc.ctx {
		clear(sims)
		counted := 0
		for i := cn.lemmaStart; i < cn.lemmaEnd; i++ {
			l := tc.lemmas[i]
			if l < 0 {
				continue
			}
			d.addWordSims(sims[:na], a, t, l, i, &s.tally)
			d.addWordSims(sims[na:], b, t, l, i, &s.tally)
			counted++
		}
		if counted > 0 {
			for k := range sims {
				sims[k] /= float64(counted)
			}
		}
		if nb == 0 {
			for k, x := range sims {
				out[k] += x * cn.weight
			}
			continue
		}
		for kp, x := range sims[:na] {
			for kq, y := range sims[na:] {
				out[kp*nb+kq] += (x + y) / 2 * cn.weight
			}
		}
	}
	for k := range out {
		out[k] /= float64(tc.size)
	}
}

// addWordSims adds to sums[k] the word maximum of r's k-th sense against
// the context token at i, whose label id is lemma: its matrix cell when r
// has matrix rows (then r and the context come from t, which has a
// matrix), else a read of the shared word memo.
func (d *Disambiguator) addWordSims(sums []float64, r reading, t *docTable, lemma, i int32, tl *cacheTally) {
	for k, sense := range r.senses {
		var cell *atomic.Uint64
		if r.row >= 0 {
			cell = &t.cells[(int(r.row)+k)*t.ncols+int(t.cols[i])]
		}
		sums[k] += d.wordSim(sense, lemma, cell, tl)
	}
}

// contextBlock writes Context_Score (Definition 10, Eq. 12 for sense
// pairs) of every candidate to out, in candidate order. Under the cosine
// a single sense with a sense row costs one dot product over the
// context's local dimensions; pairs, contexts without sense rows and the
// other measures compare the context vector with the memo's concept
// vector.
func (d *Disambiguator) contextBlock(t *docTable, a, b reading, tc *targetContext, tl *cacheTally, out []float64) {
	if nb := len(b.senses); nb > 0 {
		for kp, sp := range a.senses {
			for kq, sq := range b.senses {
				out[kp*nb+kq] = d.vectorScore(tc.vec, d.pairVectorD(sp, sq, tl))
			}
		}
		return
	}
	if a.row < 0 || len(t.srows) == 0 {
		for k, sp := range a.senses {
			out[k] = d.vectorScore(tc.vec, d.conceptVectorD(sp, tl))
		}
		return
	}
	for k, sp := range a.senses {
		row, norm2 := t.senseRow(d, a.row+int32(k), sp, tl)
		out[k] = sphere.CosineDense(tc.local, row, tc.vec.norm2, norm2)
	}
}
