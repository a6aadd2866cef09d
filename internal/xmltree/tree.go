// Package xmltree implements the rooted ordered labeled tree model of
// Definition 1 in the XSDF paper (Charbel et al., EDBT 2015).
//
// An XML document is modeled as a rooted ordered labeled tree where nodes
// represent XML elements, attributes, and text tokens. Element nodes are
// ordered following their order of appearance in the document. Attribute
// nodes appear as children of their containing element, sorted by attribute
// name, before all sub-elements. Element/attribute text values are tokenized
// (see internal/lingproc) and each token becomes a leaf child of its
// container, in order of appearance.
package xmltree

import (
	"fmt"
	"strings"

	"repro/xsdferrors"
)

// Kind distinguishes the three node categories of the XSDF document model.
type Kind uint8

const (
	// Element is an XML element node, labeled with the element tag name.
	Element Kind = iota
	// Attribute is an XML attribute node, labeled with the attribute name.
	Attribute
	// Token is a leaf node holding one token of an element or attribute
	// text value.
	Token
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case Element:
		return "element"
	case Attribute:
		return "attribute"
	case Token:
		return "token"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Node is a single node of a rooted ordered labeled tree. In the paper's
// notation, for a node x: x.ℓ is Label, x.d is Depth, and x.f is FanOut.
type Node struct {
	// Raw is the original tag name, attribute name, or token text as it
	// appeared in the document, before linguistic pre-processing.
	Raw string
	// Label is the node label after linguistic pre-processing (lower-cased,
	// stemmed when needed). Compound labels keep both tokens joined by a
	// space ("first name") so they are disambiguated together (§3.2).
	Label string
	// Tokens holds the individual pre-processed tokens of a compound label
	// (len 2), or a single entry equal to Label otherwise. Empty until
	// linguistic pre-processing runs.
	Tokens []string
	// Kind is the node category (element, attribute, or text token).
	Kind Kind
	// Parent is nil for the root.
	Parent *Node
	// Children in document order (attributes first, sorted by name).
	Children []*Node

	// Index is the node's preorder rank: T[i] in the paper's notation.
	// Maintained by Tree.Reindex.
	Index int
	// Depth is the number of edges from the root. Maintained by Reindex.
	Depth int

	// Sense is the identifier of the semantic concept assigned by
	// disambiguation, or empty when the node has not been (or could not be)
	// disambiguated.
	Sense string
	// SenseScore is the score of the winning sense in [0,1].
	SenseScore float64
	// Degraded records the degradation-ladder level the node was scored
	// at: zero for the full configured method (or when the ladder is off),
	// higher values for the cheaper fallbacks a budget-pressured run
	// stepped down to.
	Degraded xsdferrors.DegradationLevel
	// Gold is the ground-truth concept identifier attached by the corpus
	// generators (empty for real documents).
	Gold string

	// Links holds intra-document hyperlink edges (ID/IDREF) materialized by
	// Tree.ResolveLinks. With links present the document is a graph rather
	// than a tree; sphere construction may traverse them (§1).
	Links []*Node
}

// FanOut returns the node's out-degree (x.f in the paper).
func (n *Node) FanOut() int { return len(n.Children) }

// Density returns the number of children having distinct labels (x.f̄ in the
// paper): the node density factor of Proposition 3.
func (n *Node) Density() int {
	if len(n.Children) > 16 {
		seen := make(map[string]struct{}, len(n.Children))
		for _, c := range n.Children {
			seen[c.Label] = struct{}{}
		}
		return len(seen)
	}
	// Narrow nodes, the common case, compare labels pairwise rather than
	// build a set.
	d := 0
next:
	for i, c := range n.Children {
		for _, prev := range n.Children[:i] {
			if prev.Label == c.Label {
				continue next
			}
		}
		d++
	}
	return d
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// AddChild appends c as the last child of n and sets its parent pointer.
func (n *Node) AddChild(c *Node) {
	c.Parent = n
	n.Children = append(n.Children, c)
}

// Path returns the labels on the path from the root down to n, inclusive.
func (n *Node) Path() []string {
	var rev []string
	for cur := n; cur != nil; cur = cur.Parent {
		rev = append(rev, cur.Label)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Ancestors returns the chain of ancestor nodes from parent up to the root.
func (n *Node) Ancestors() []*Node {
	var out []*Node
	for cur := n.Parent; cur != nil; cur = cur.Parent {
		out = append(out, cur)
	}
	return out
}

// String renders a short diagnostic description of the node.
func (n *Node) String() string {
	return fmt.Sprintf("%s %q (T[%d] depth=%d)", n.Kind, n.Label, n.Index, n.Depth)
}

// Tree is a rooted ordered labeled tree (Definition 1). The zero value is an
// empty tree; use New or a parser to build one, then Reindex after any
// structural mutation.
type Tree struct {
	Root *Node

	nodes    []*Node
	maxDepth int
	maxDens  int
	maxFan   int
}

// New wraps root into a Tree and computes preorder indexes and statistics.
func New(root *Node) *Tree {
	t := &Tree{Root: root}
	t.Reindex()
	return t
}

// Reindex recomputes preorder indexes, depths, and the tree-level maxima
// (depth, fan-out, density) after structural changes.
func (t *Tree) Reindex() {
	t.nodes = t.nodes[:0]
	t.maxDepth, t.maxDens, t.maxFan = 0, 0, 0
	if t.Root == nil {
		return
	}
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		n.Index = len(t.nodes)
		n.Depth = depth
		t.nodes = append(t.nodes, n)
		if depth > t.maxDepth {
			t.maxDepth = depth
		}
		if f := n.FanOut(); f > t.maxFan {
			t.maxFan = f
		}
		if d := n.Density(); d > t.maxDens {
			t.maxDens = d
		}
		for _, c := range n.Children {
			c.Parent = n
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
}

// Len returns the number of nodes in the tree.
func (t *Tree) Len() int { return len(t.nodes) }

// Node returns the i-th node in preorder (the paper's T[i]), or nil when i
// is out of range.
func (t *Tree) Node(i int) *Node {
	if i < 0 || i >= len(t.nodes) {
		return nil
	}
	return t.nodes[i]
}

// Nodes returns the preorder node sequence. The slice is shared with the
// tree: callers must not mutate it.
func (t *Tree) Nodes() []*Node { return t.nodes }

// MaxDepth returns Max(depth(T)) used by the Amb_Depth factor.
func (t *Tree) MaxDepth() int { return t.maxDepth }

// MaxFanOut returns Max(fan-out(T)).
func (t *Tree) MaxFanOut() int { return t.maxFan }

// MaxDensity returns Max(f̄an-out(T)): the maximum number of children with
// distinct labels over all nodes, used by the Amb_Density factor.
func (t *Tree) MaxDensity() int { return t.maxDens }

// Distance returns the number of edges on the unique path between a and b.
// Both nodes must belong to the same tree. The implementation climbs parent
// pointers to the lowest common ancestor, so it runs in O(depth).
func Distance(a, b *Node) int {
	if a == b {
		return 0
	}
	da, db := a.Depth, b.Depth
	dist := 0
	for da > db {
		a = a.Parent
		da--
		dist++
	}
	for db > da {
		b = b.Parent
		db--
		dist++
	}
	for a != b {
		a = a.Parent
		b = b.Parent
		dist += 2
	}
	return dist
}

// LCA returns the lowest common ancestor of a and b (possibly a or b itself).
func LCA(a, b *Node) *Node {
	for a.Depth > b.Depth {
		a = a.Parent
	}
	for b.Depth > a.Depth {
		b = b.Parent
	}
	for a != b {
		a = a.Parent
		b = b.Parent
	}
	return a
}

// Dump renders an indented textual view of the tree, useful in tests and
// example programs.
func (t *Tree) Dump() string {
	var sb strings.Builder
	var walk func(n *Node, indent int)
	walk = func(n *Node, indent int) {
		sb.WriteString(strings.Repeat("  ", indent))
		sb.WriteString(n.Label)
		if n.Sense != "" {
			sb.WriteString(" -> ")
			sb.WriteString(n.Sense)
		}
		sb.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, indent+1)
		}
	}
	if t.Root != nil {
		walk(t.Root, 0)
	}
	return sb.String()
}

// Clone returns a deep copy of the tree. Sense assignments, gold labels,
// and hyperlink edges are preserved (links are remapped into the copy).
func (t *Tree) Clone() *Tree {
	if t.Root == nil {
		return &Tree{}
	}
	mapping := make(map[*Node]*Node, len(t.nodes))
	var cp func(n *Node) *Node
	cp = func(n *Node) *Node {
		m := &Node{
			Raw:        n.Raw,
			Label:      n.Label,
			Kind:       n.Kind,
			Sense:      n.Sense,
			SenseScore: n.SenseScore,
			Degraded:   n.Degraded,
			Gold:       n.Gold,
		}
		mapping[n] = m
		if len(n.Tokens) > 0 {
			m.Tokens = append([]string(nil), n.Tokens...)
		}
		for _, c := range n.Children {
			m.AddChild(cp(c))
		}
		return m
	}
	root := cp(t.Root)
	for old, neu := range mapping {
		for _, l := range old.Links {
			if tl, ok := mapping[l]; ok {
				neu.Links = append(neu.Links, tl)
			}
		}
	}
	return New(root)
}
