package xmltree

// The parent implementation of Parse and SubtreeScanner, kept verbatim
// under new names as the tree-level oracle: it tokenizes with
// encoding/xml and builds nodes one by one. The streaming scanner and the
// shared element builder must reproduce its trees, guard trips, subtree
// offsets and counters exactly (see oracle_test.go).

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/xsdferrors"
)

// referenceParse reads an XML document and returns its rooted ordered labeled tree.
// Attribute nodes are sorted by name and placed before sub-elements,
// following the canonical ordering of §3.1.
//
// Parsing is resource-guarded: nesting depth, total node count, and
// per-value byte size are bounded by the ParseOptions limits (package
// defaults when zero), and violations return an *xsdferrors.LimitError.
// Well-formedness failures return errors matching
// xsdferrors.ErrMalformedInput. Parse never panics on hostile input.
func referenceParse(r io.Reader, opts ParseOptions) (*Tree, error) {
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

// referenceSubtreeScanner incrementally parses one XML document, emitting one
// completed subtree per Next call. Use newReferenceSubtreeScanner; the scanner is
// single-goroutine (pull-based), holds no more than one subtree of
// nodes, and never re-reads input.
type referenceSubtreeScanner struct {
	dec      *xml.Decoder
	tokenize func(string) []string
	include  bool

	splitDepth         int
	maxDepth, maxNodes int
	maxValue           int
	maxSubtreeBytes    int64
	maxSubtrees        int

	path       []string // envelope element names currently open
	open       int      // count of open envelope elements (== len(path))
	rootSeen   bool
	rootClosed bool

	index   int // subtrees attempted (emitted + guard-tripped)
	emitted int
	failed  int

	skip int   // >0: recovering — open elements of a tripped subtree left to close
	err  error // sticky terminal state (a fatal *SubtreeError, or io.EOF)
}

// newReferenceSubtreeScanner reads one XML document from r in incremental subtree
// mode.
func newReferenceSubtreeScanner(r io.Reader, opts SubtreeOptions) *referenceSubtreeScanner {
	tokenize := opts.Tokenize
	if tokenize == nil {
		tokenize = strings.Fields
	}
	return &referenceSubtreeScanner{
		dec:             xml.NewDecoder(r),
		tokenize:        tokenize,
		include:         opts.IncludeContent,
		splitDepth:      opts.splitDepth(),
		maxDepth:        opts.maxDepth(),
		maxNodes:        opts.maxNodes(),
		maxValue:        opts.maxTokenBytes(),
		maxSubtreeBytes: opts.maxSubtreeBytes(),
		maxSubtrees:     opts.maxSubtrees(),
	}
}

// Emitted is the number of subtrees successfully returned so far.
func (s *referenceSubtreeScanner) Emitted() int { return s.emitted }

// Failed is the number of subtrees skipped on a recoverable guard trip.
func (s *referenceSubtreeScanner) Failed() int { return s.failed }

// InputOffset is the byte offset the decoder has consumed up to.
func (s *referenceSubtreeScanner) InputOffset() int64 { return s.dec.InputOffset() }

// fatal records a document-level error; every later Next repeats it.
func (s *referenceSubtreeScanner) fatal(err error) error {
	se := &SubtreeError{Subtree: s.index, Offset: s.dec.InputOffset(), Fatal: true, Err: err}
	s.err = se
	return se
}

// trip records a per-subtree guard violation: the current subtree (with
// stillOpen elements consumed but unclosed) is abandoned, and the next
// Next call skips to its end tag before continuing.
func (s *referenceSubtreeScanner) trip(idx, stillOpen int, err error) error {
	s.failed++
	s.skip = stillOpen
	return &SubtreeError{Subtree: idx, Offset: s.dec.InputOffset(), Err: err}
}

// Next returns the next completed subtree. It returns io.EOF after the
// document ends cleanly; a recoverable *SubtreeError when one subtree
// tripped a guard (call Next again to continue past it); and a fatal
// *SubtreeError on malformed input or a document-level budget violation
// (every later call returns the same error).
func (s *referenceSubtreeScanner) Next() (*Subtree, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.skip > 0 {
		if err := s.skipTripped(); err != nil {
			return nil, s.fatal(err)
		}
	}
	for {
		off := s.dec.InputOffset()
		tok, err := s.dec.Token()
		if err == io.EOF {
			switch {
			case !s.rootSeen:
				return nil, s.fatal(malformed("empty document"))
			case s.open != 0:
				return nil, s.fatal(malformed("%d unclosed elements", s.open))
			}
			s.err = io.EOF
			return nil, io.EOF
		}
		if err != nil {
			return nil, s.fatal(fmt.Errorf("xmltree: parse: %w: %w", xsdferrors.ErrMalformedInput, err))
		}
		switch tk := tok.(type) {
		case xml.StartElement:
			if s.open == 0 {
				if s.rootClosed {
					return nil, s.fatal(malformed("multiple root elements"))
				}
				s.rootSeen = true
			}
			if s.open < s.splitDepth {
				// Envelope element: guard its attribute values (they are
				// decoded into memory either way), record the path, and
				// descend without materializing anything.
				for _, a := range tk.Attr {
					if len(a.Value) > s.maxValue {
						return nil, s.fatal(&xsdferrors.LimitError{
							Limit: "token-bytes", Max: s.maxValue, Actual: len(a.Value)})
					}
				}
				s.path = append(s.path, tk.Name.Local)
				s.open++
				continue
			}
			if s.index >= s.maxSubtrees {
				return nil, s.fatal(&xsdferrors.LimitError{
					Limit: "subtrees", Max: s.maxSubtrees, Actual: s.index + 1})
			}
			return s.buildSubtree(tk, off)
		case xml.EndElement:
			if s.open == 0 {
				return nil, s.fatal(malformed("unbalanced end element %q", tk.Name.Local))
			}
			s.open--
			s.path = s.path[:len(s.path)-1]
			if s.open == 0 {
				s.rootClosed = true
			}
		case xml.CharData:
			// Envelope text is never materialized, but an oversized chunk
			// was already decoded whole — reject the document like Parse
			// would.
			if len(tk) > s.maxValue {
				return nil, s.fatal(&xsdferrors.LimitError{
					Limit: "token-bytes", Max: s.maxValue, Actual: len(tk)})
			}
		}
	}
}

// buildSubtree materializes one subtree whose start tag (already
// consumed) began at startOff, enforcing the per-subtree guards.
func (s *referenceSubtreeScanner) buildSubtree(start xml.StartElement, startOff int64) (*Subtree, error) {
	idx := s.index
	s.index++

	nodes := 0
	addNode := func() error {
		nodes++
		if nodes > s.maxNodes {
			return &xsdferrors.LimitError{Limit: "nodes", Max: s.maxNodes, Actual: nodes}
		}
		return nil
	}

	// startElement maps one start tag (the root, or a descendant) onto
	// its node with sorted, tokenized attributes — the same construction
	// as Parse, with depth counted from the subtree root.
	startElement := func(tk xml.StartElement, depth int) (*Node, error) {
		if depth > s.maxDepth {
			return nil, &xsdferrors.LimitError{Limit: "depth", Max: s.maxDepth, Actual: depth}
		}
		if err := addNode(); err != nil {
			return nil, err
		}
		n := &Node{Raw: tk.Name.Local, Label: tk.Name.Local, Kind: Element}
		attrs := append([]xml.Attr(nil), tk.Attr...)
		sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name.Local < attrs[j].Name.Local })
		for _, a := range attrs {
			if len(a.Value) > s.maxValue {
				return nil, &xsdferrors.LimitError{Limit: "token-bytes", Max: s.maxValue, Actual: len(a.Value)}
			}
			if err := addNode(); err != nil {
				return nil, err
			}
			an := &Node{Raw: a.Name.Local, Label: a.Name.Local, Kind: Attribute}
			n.AddChild(an)
			if s.include {
				for _, w := range s.tokenize(a.Value) {
					if err := addNode(); err != nil {
						return nil, err
					}
					an.AddChild(&Node{Raw: w, Label: w, Kind: Token})
				}
			}
		}
		return n, nil
	}

	root, err := startElement(start, 1)
	if err != nil {
		return nil, s.trip(idx, 1, err)
	}
	stack := []*Node{root}

	for {
		if consumed := s.dec.InputOffset() - startOff; consumed > s.maxSubtreeBytes {
			return nil, s.trip(idx, len(stack), &xsdferrors.LimitError{
				Limit: "subtree-bytes", Max: int(s.maxSubtreeBytes), Actual: int(consumed)})
		}
		tok, err := s.dec.Token()
		if err == io.EOF {
			return nil, s.fatal(malformed("%d unclosed elements", s.open+len(stack)))
		}
		if err != nil {
			return nil, s.fatal(fmt.Errorf("xmltree: parse: %w: %w", xsdferrors.ErrMalformedInput, err))
		}
		switch tk := tok.(type) {
		case xml.StartElement:
			n, err := startElement(tk, len(stack)+1)
			if err != nil {
				return nil, s.trip(idx, len(stack)+1, err)
			}
			stack[len(stack)-1].AddChild(n)
			stack = append(stack, n)
		case xml.EndElement:
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				continue
			}
			s.emitted++
			return &Subtree{
				Tree:        New(root),
				Index:       idx,
				Path:        append([]string(nil), s.path...),
				StartOffset: startOff,
				EndOffset:   s.dec.InputOffset(),
			}, nil
		case xml.CharData:
			if len(tk) > s.maxValue {
				return nil, s.trip(idx, len(stack), &xsdferrors.LimitError{
					Limit: "token-bytes", Max: s.maxValue, Actual: len(tk)})
			}
			if !s.include {
				continue
			}
			parent := stack[len(stack)-1]
			for _, w := range s.tokenize(string(tk)) {
				if err := addNode(); err != nil {
					return nil, s.trip(idx, len(stack), err)
				}
				parent.AddChild(&Node{Raw: w, Label: w, Kind: Token})
			}
		}
	}
}

// skipTripped discards the rest of a guard-tripped subtree: tokens are
// read and dropped until its open elements close. Well-formedness is
// still checked (a malformed tail is fatal), but the tripped subtree's
// content is not re-guarded — it already failed.
func (s *referenceSubtreeScanner) skipTripped() error {
	for s.skip > 0 {
		tok, err := s.dec.Token()
		if err == io.EOF {
			return malformed("%d unclosed elements", s.open+s.skip)
		}
		if err != nil {
			return fmt.Errorf("xmltree: parse: %w: %w", xsdferrors.ErrMalformedInput, err)
		}
		switch tok.(type) {
		case xml.StartElement:
			s.skip++
		case xml.EndElement:
			s.skip--
		}
	}
	return nil
}
