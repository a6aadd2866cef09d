package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
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
	// internal/lingproc. Tokenize is not called for values made only of
	// space, tab, CR and LF: the parser adds no tokens for them, as every
	// tokenizer in this repository returns none.
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

// malformedBy wraps a scanner error (a syntax error, or the reader's own
// error) so that it matches xsdferrors.ErrMalformedInput and still
// unwraps to the cause.
func malformedBy(err error) error {
	return fmt.Errorf("xmltree: parse: %w: %w", xsdferrors.ErrMalformedInput, err)
}

// Parse reads an XML document and returns its rooted ordered labeled tree.
// Attribute nodes are sorted by name and placed before sub-elements,
// following the canonical ordering of §3.1.
//
// The input is read as a stream through a fixed window and tokenized
// exactly as encoding/xml's Decoder.Token would, building the tree in the
// same pass; no part of the document is buffered beyond the token being
// read. Parsing is resource-guarded: nesting depth, total node count, and
// per-value byte size are bounded by the ParseOptions limits (package
// defaults when zero), and violations return an *xsdferrors.LimitError
// after reading only a bounded prefix of the input. Well-formedness
// failures, and reader errors, return errors matching
// xsdferrors.ErrMalformedInput. Parse never panics on hostile input.
func Parse(r io.Reader, opts ParseOptions) (*Tree, error) {
	p := newParser(r, opts)
	defer p.release()
	rootSeen := false
	for {
		kind, err := p.sc.next()
		if err != nil {
			return nil, malformedBy(err)
		}
		switch kind {
		case tokEOF:
			if !rootSeen {
				return nil, malformed("empty document")
			}
			return p.b.tree(), nil
		case tokStart:
			top := len(p.b.stack) == 0
			if err := p.b.start(&p.sc.tag); err != nil {
				return nil, err
			}
			if top {
				if rootSeen {
					return nil, malformed("multiple root elements")
				}
				rootSeen = true
			}
		case tokEnd:
			p.b.end()
		case tokText:
			if err := p.b.text(p.sc.data); err != nil {
				return nil, err
			}
		}
	}
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
