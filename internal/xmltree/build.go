package xmltree

import (
	"bytes"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/xsdferrors"
)

// builder maps scanned tokens onto one tree under the ParseOptions guards.
// Parse uses one per document, the SubtreeScanner one per subtree, so both
// build nodes, order attributes and trip guards the same way.
//
// Nodes are recorded compactly in preorder, which is the order tokens
// create them in: an element, then its attributes in name order each
// followed by its value tokens, then its content in document order. tree()
// then allocates the whole tree at once: one Node slab, and one pointer
// array holding the preorder index and every child slice.
type builder struct {
	tokenize func(string) []string
	include  bool
	maxDepth int
	maxNodes int
	maxValue int

	nodes []bnode           // the tree so far, in preorder
	stack []int32           // open elements, root first
	names map[string]string // element and attribute names of this tree
}

type bnode struct {
	raw    string
	parent int32 // -1 for a root
	depth  int32
	kids   int32
	kind   Kind
}

func (b *builder) configure(opts ParseOptions) {
	b.tokenize = opts.Tokenize
	if b.tokenize == nil {
		b.tokenize = strings.Fields
	}
	b.include = opts.IncludeContent
	b.maxDepth, b.maxNodes, b.maxValue = opts.maxDepth(), opts.maxNodes(), opts.maxTokenBytes()
	b.reset()
}

// reset starts a new tree, dropping the references the last one held.
func (b *builder) reset() {
	clear(b.nodes)
	b.nodes = b.nodes[:0]
	b.stack = b.stack[:0]
	clear(b.names)
}

// add appends a node under parent, enforcing MaxNodes.
func (b *builder) add(raw string, kind Kind, parent int32) error {
	if len(b.nodes) >= b.maxNodes {
		return &xsdferrors.LimitError{Limit: "nodes", Max: b.maxNodes, Actual: len(b.nodes) + 1}
	}
	var depth int32
	if parent >= 0 {
		p := &b.nodes[parent]
		p.kids++
		depth = p.depth + 1
	}
	b.nodes = append(b.nodes, bnode{raw: raw, parent: parent, depth: depth, kind: kind})
	return nil
}

// start opens an element: the depth guard, the element node, then its
// attributes sorted by local name, each with its value-length guard, its
// node and its value tokens.
func (b *builder) start(tag *startTag) error {
	if depth := len(b.stack) + 1; depth > b.maxDepth {
		return &xsdferrors.LimitError{Limit: "depth", Max: b.maxDepth, Actual: depth}
	}
	parent := int32(-1)
	if len(b.stack) > 0 {
		parent = b.stack[len(b.stack)-1]
	}
	el := int32(len(b.nodes))
	if err := b.add(b.intern(tag.local), Element, parent); err != nil {
		return err
	}
	attrs := tag.attrs
	if len(attrs) > 1 {
		sort.Slice(attrs, func(i, j int) bool { return bytes.Compare(attrs[i].local, attrs[j].local) < 0 })
	}
	for _, a := range attrs {
		if len(a.value) > b.maxValue {
			return &xsdferrors.LimitError{Limit: "token-bytes", Max: b.maxValue, Actual: len(a.value)}
		}
		an := int32(len(b.nodes))
		if err := b.add(b.intern(a.local), Attribute, el); err != nil {
			return err
		}
		if b.include {
			if err := b.tokens(a.value, an); err != nil {
				return err
			}
		}
	}
	b.stack = append(b.stack, el)
	return nil
}

// end closes the innermost open element.
func (b *builder) end() { b.stack = b.stack[:len(b.stack)-1] }

// text adds the tokens of a character-data chunk to the innermost open
// element. The length guard runs first, even outside the root element and
// in structure-only mode.
func (b *builder) text(data []byte) error {
	if len(data) > b.maxValue {
		return &xsdferrors.LimitError{Limit: "token-bytes", Max: b.maxValue, Actual: len(data)}
	}
	if !b.include || len(b.stack) == 0 {
		return nil
	}
	return b.tokens(data, b.stack[len(b.stack)-1])
}

// tokens adds one Token leaf per word of value. Values made only of XML
// white space are skipped without calling the tokenizer.
func (b *builder) tokens(value []byte, parent int32) error {
	if isSpace(value) {
		return nil
	}
	for _, w := range b.tokenize(string(value)) {
		if err := b.add(w, Token, parent); err != nil {
			return err
		}
	}
	return nil
}

func isSpace(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

// intern returns the tree's copy of a tag or attribute name, so repeated
// names share one string.
func (b *builder) intern(name []byte) string {
	if s, ok := b.names[string(name)]; ok {
		return s
	}
	if b.names == nil {
		b.names = make(map[string]string)
	}
	s := string(name)
	b.names[s] = s
	return s
}

// tree materializes the recorded nodes, the first being the root, into a
// Tree equal to New(root): parent pointers, preorder index and depth, and
// the depth, fan-out and density maxima. Child slices are carved from one
// array with cap == len, so a later AddChild reallocates instead of
// overwriting a sibling's children.
func (b *builder) tree() *Tree {
	n := len(b.nodes)
	slab := make([]Node, n)
	ptrs := make([]*Node, 2*n-1)
	t := &Tree{Root: &slab[0], nodes: ptrs[:n:n]}
	kids := ptrs[n:]
	for i := range b.nodes {
		bn, nd := &b.nodes[i], &slab[i]
		nd.Raw, nd.Label, nd.Kind = bn.raw, bn.raw, bn.kind
		nd.Index, nd.Depth = i, int(bn.depth)
		t.nodes[i] = nd
		if k := int(bn.kids); k > 0 {
			nd.Children, kids = kids[:0:k], kids[k:]
			t.maxFan = max(t.maxFan, k)
		}
		if bn.parent >= 0 {
			p := &slab[bn.parent]
			nd.Parent = p
			p.Children = append(p.Children, nd)
		}
		t.maxDepth = max(t.maxDepth, nd.Depth)
	}
	for i := range slab {
		// A node's density is at most its fan-out.
		if len(slab[i].Children) > t.maxDens {
			t.maxDens = max(t.maxDens, slab[i].Density())
		}
	}
	return t
}

// parser is the pooled state of one parse: the scanner and the builder.
type parser struct {
	sc scanner
	b  builder
}

// parserPool recycles read windows, arenas and node scratch between
// parses. Nothing a parse returns points into a pooled parser.
var parserPool = sync.Pool{New: func() any { return new(parser) }}

// Scratch larger than these bounds, grown by an unusual document, is
// dropped rather than kept in the pool.
const (
	maxPooledBytes = 64 << 10
	maxPooledNodes = 1 << 14
	maxPooledNames = 1 << 10
)

func newParser(r io.Reader, opts ParseOptions) *parser {
	p := parserPool.Get().(*parser)
	p.sc.reset(r)
	p.b.configure(opts)
	return p
}

// release returns the parser to the pool. The caller must not use it
// afterwards.
func (p *parser) release() {
	sc, b := &p.sc, &p.b
	sc.r, sc.err, sc.rerr, sc.data = nil, nil, nil, nil
	if cap(sc.arena) > maxPooledBytes {
		sc.arena, sc.tag.attrs = nil, nil
	}
	if cap(sc.scratch) > maxPooledBytes {
		sc.scratch = nil
	}
	if cap(sc.open) > maxPooledBytes {
		sc.open, sc.openEnds = nil, nil
	}
	b.tokenize = nil
	if cap(b.nodes) > maxPooledNodes {
		b.nodes, b.stack = nil, nil
	}
	if len(b.names) > maxPooledNames {
		b.names = nil
	}
	b.reset()
	parserPool.Put(p)
}
