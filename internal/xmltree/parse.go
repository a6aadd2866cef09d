package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/xsdferrors"
)

// Default resource limits applied when the corresponding ParseOptions
// field is zero. They are generous for legitimate documents but stop
// hostile inputs (the "billion laughs" nesting shape, megabyte attribute
// values) before the tree is materialized.
const (
	DefaultMaxDepth      = 1_000
	DefaultMaxNodes      = 1_000_000
	DefaultMaxTokenBytes = 1 << 20 // 1 MiB per text value or character-data chunk
)

// ParseOptions controls how an XML byte stream is mapped onto the tree model.
type ParseOptions struct {
	// IncludeContent controls whether element/attribute text values are kept
	// as Token leaf nodes (structure-and-content mode, the paper's default)
	// or dropped (structure-only mode).
	IncludeContent bool
	// Tokenize splits a text value into raw tokens. When nil, values are
	// split on Unicode whitespace. Linguistic pre-processing proper (stop
	// words, stemming, compound handling) is applied later by
	// internal/lingproc.
	Tokenize func(string) []string

	// MaxDepth bounds element nesting depth; MaxNodes bounds the total
	// node count (elements + attributes + tokens); MaxTokenBytes bounds the
	// byte length of a single attribute value or character-data chunk.
	// Zero selects the package defaults above; a negative value disables
	// the guard. Violations abort parsing with an
	// *xsdferrors.LimitError.
	MaxDepth      int
	MaxNodes      int
	MaxTokenBytes int
}

func resolveLimit(v, def int) int {
	switch {
	case v == 0:
		return def
	case v < 0:
		return int(^uint(0) >> 1) // effectively unlimited
	default:
		return v
	}
}

func (o ParseOptions) maxDepth() int      { return resolveLimit(o.MaxDepth, DefaultMaxDepth) }
func (o ParseOptions) maxNodes() int      { return resolveLimit(o.MaxNodes, DefaultMaxNodes) }
func (o ParseOptions) maxTokenBytes() int { return resolveLimit(o.MaxTokenBytes, DefaultMaxTokenBytes) }

// DefaultParseOptions returns the structure-and-content configuration used
// throughout the paper's experiments.
func DefaultParseOptions() ParseOptions {
	return ParseOptions{IncludeContent: true}
}

// malformed builds a parse error that matches xsdferrors.ErrMalformedInput
// under errors.Is while keeping the traditional message prefix.
func malformed(format string, args ...any) error {
	return fmt.Errorf("xmltree: parse: %w: %s",
		xsdferrors.ErrMalformedInput, fmt.Sprintf(format, args...))
}

// Parse reads an XML document and returns its rooted ordered labeled tree.
// Attribute nodes are sorted by name and placed before sub-elements,
// following the canonical ordering of §3.1.
//
// Parsing is resource-guarded: nesting depth, total node count, and
// per-value byte size are bounded by the ParseOptions limits (package
// defaults when zero), and violations return an *xsdferrors.LimitError.
// Well-formedness failures return errors matching
// xsdferrors.ErrMalformedInput. Parse never panics on hostile input.
func Parse(r io.Reader, opts ParseOptions) (*Tree, error) {
	dec := xml.NewDecoder(r)
	tokenize := opts.Tokenize
	if tokenize == nil {
		tokenize = strings.Fields
	}
	maxDepth, maxNodes, maxValue := opts.maxDepth(), opts.maxNodes(), opts.maxTokenBytes()

	nodes := 0
	addNode := func() error {
		nodes++
		if nodes > maxNodes {
			return &xsdferrors.LimitError{Limit: "nodes", Max: maxNodes, Actual: nodes}
		}
		return nil
	}

	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w: %w", xsdferrors.ErrMalformedInput, err)
		}
		switch tk := tok.(type) {
		case xml.StartElement:
			if len(stack)+1 > maxDepth {
				return nil, &xsdferrors.LimitError{Limit: "depth", Max: maxDepth, Actual: len(stack) + 1}
			}
			if err := addNode(); err != nil {
				return nil, err
			}
			n := &Node{Raw: tk.Name.Local, Label: tk.Name.Local, Kind: Element}
			attrs := append([]xml.Attr(nil), tk.Attr...)
			sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name.Local < attrs[j].Name.Local })
			for _, a := range attrs {
				if len(a.Value) > maxValue {
					return nil, &xsdferrors.LimitError{Limit: "token-bytes", Max: maxValue, Actual: len(a.Value)}
				}
				if err := addNode(); err != nil {
					return nil, err
				}
				an := &Node{Raw: a.Name.Local, Label: a.Name.Local, Kind: Attribute}
				n.AddChild(an)
				if opts.IncludeContent {
					for _, w := range tokenize(a.Value) {
						if err := addNode(); err != nil {
							return nil, err
						}
						an.AddChild(&Node{Raw: w, Label: w, Kind: Token})
					}
				}
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, malformed("multiple root elements")
				}
				root = n
			} else {
				stack[len(stack)-1].AddChild(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, malformed("unbalanced end element %q", tk.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(tk) > maxValue {
				return nil, &xsdferrors.LimitError{Limit: "token-bytes", Max: maxValue, Actual: len(tk)}
			}
			if !opts.IncludeContent || len(stack) == 0 {
				continue
			}
			parent := stack[len(stack)-1]
			for _, w := range tokenize(string(tk)) {
				if err := addNode(); err != nil {
					return nil, err
				}
				parent.AddChild(&Node{Raw: w, Label: w, Kind: Token})
			}
		}
	}
	if root == nil {
		return nil, malformed("empty document")
	}
	if len(stack) != 0 {
		return nil, malformed("%d unclosed elements", len(stack))
	}
	return New(root), nil
}

// ParseString is Parse over an in-memory document.
func ParseString(doc string, opts ParseOptions) (*Tree, error) {
	return Parse(strings.NewReader(doc), opts)
}

// WriteXML serializes the tree back to XML. Token children are emitted as
// character data (joined by single spaces); attribute nodes become XML
// attributes again. When annotate is true, disambiguated nodes carry an
// xsdf:sense attribute with the assigned concept identifier, producing the
// "semantic XML tree" output of Figure 4.b.
func (t *Tree) WriteXML(w io.Writer, annotate bool) error {
	if t.Root == nil {
		return fmt.Errorf("xmltree: write: empty tree")
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	return writeElem(w, t.Root, 0, annotate)
}

func writeElem(w io.Writer, n *Node, indent int, annotate bool) error {
	pad := strings.Repeat("  ", indent)
	var sb strings.Builder
	sb.WriteString(pad)
	sb.WriteByte('<')
	sb.WriteString(n.Raw)
	var text []string
	var elems []*Node
	for _, c := range n.Children {
		switch c.Kind {
		case Attribute:
			sb.WriteByte(' ')
			sb.WriteString(c.Raw)
			sb.WriteString(`="`)
			var vals []string
			for _, tc := range c.Children {
				vals = append(vals, escapeAttr(tc.Raw))
			}
			sb.WriteString(strings.Join(vals, " "))
			sb.WriteByte('"')
			if annotate && c.Sense != "" {
				sb.WriteString(` xsdf:sense-`)
				sb.WriteString(c.Raw)
				sb.WriteString(`="`)
				sb.WriteString(escapeAttr(c.Sense))
				sb.WriteByte('"')
			}
		case Token:
			text = append(text, escapeText(c.Raw))
		case Element:
			elems = append(elems, c)
		}
	}
	if annotate && n.Sense != "" {
		sb.WriteString(` xsdf:sense="`)
		sb.WriteString(escapeAttr(n.Sense))
		sb.WriteByte('"')
	}
	if len(text) == 0 && len(elems) == 0 {
		sb.WriteString("/>\n")
		_, err := io.WriteString(w, sb.String())
		return err
	}
	sb.WriteByte('>')
	if len(elems) == 0 {
		sb.WriteString(strings.Join(text, " "))
		sb.WriteString("</")
		sb.WriteString(n.Raw)
		sb.WriteString(">\n")
		_, err := io.WriteString(w, sb.String())
		return err
	}
	sb.WriteByte('\n')
	if len(text) > 0 {
		sb.WriteString(pad)
		sb.WriteString("  ")
		sb.WriteString(strings.Join(text, " "))
		sb.WriteByte('\n')
	}
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return err
	}
	for _, c := range elems {
		if err := writeElem(w, c, indent+1, annotate); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s</%s>\n", pad, n.Raw)
	return err
}

// textEscaper and attrEscaper are built once: a strings.Replacer builds
// its lookup table on first use and is safe for concurrent use, so
// sharing one keeps WriteXML from building a table per value.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

func escapeText(s string) string { return textEscaper.Replace(s) }

func escapeAttr(s string) string { return attrEscaper.Replace(s) }
