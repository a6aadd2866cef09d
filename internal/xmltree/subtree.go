// Incremental SAX-style parsing: a pull-based scanner that walks the
// token stream and materializes one completed subtree at a time, so a
// document far larger than memory can be disambiguated
// subtree-by-subtree with live heap proportional to one subtree.
//
// The document is split at a configurable element depth (default 1: the
// children of the document root). Elements, attributes, and text above
// the split depth — the "envelope" — are consumed for well-formedness
// checking and path accounting but never materialized, which is the
// mode's one semantic divergence from whole-document parsing: a node
// whose sphere context would have crossed the subtree boundary loses the
// envelope side of that context (see the golden equivalence test).
//
// Guard semantics are scoped by where a violation happens:
//
//   - Inside a subtree, MaxDepth/MaxNodes/MaxTokenBytes (counted per
//     subtree) and MaxSubtreeBytes violations fail that subtree only:
//     Next returns a recoverable *SubtreeError, the scanner skips to the
//     subtree's end tag, and the following Next continues with the next
//     subtree.
//   - In the envelope, and for the document-level MaxSubtrees budget and
//     any well-formedness failure, the violation is fatal: Next returns a
//     *SubtreeError with Fatal set and every later call returns the same
//     error. Subtrees already emitted remain valid partial results.
//
// Both shapes carry the subtree ordinal and the input byte offset, so a
// caller knows exactly where the cut happened.
package xmltree

import (
	"fmt"
	"io"

	"repro/xsdferrors"
)

// Default budgets of the incremental mode, applied when the
// corresponding SubtreeOptions field is zero.
const (
	// DefaultSplitDepth emits the children of the document root.
	DefaultSplitDepth = 1
	// DefaultMaxSubtreeBytes bounds the encoded size of one subtree.
	DefaultMaxSubtreeBytes = 16 << 20 // 16 MiB
	// DefaultMaxSubtrees bounds how many subtrees one document may emit.
	DefaultMaxSubtrees = 1_000_000
)

// SubtreeOptions configures a SubtreeScanner. The embedded ParseOptions
// guards (MaxDepth, MaxNodes, MaxTokenBytes) are enforced per subtree,
// with depth counted from the subtree root.
type SubtreeOptions struct {
	ParseOptions

	// SplitDepth is the element depth whose elements become subtree
	// roots: 1 (the default) splits at the children of the document
	// root, 2 at the grandchildren, and so on. Values below 1 select the
	// default.
	SplitDepth int
	// MaxSubtreeBytes bounds the encoded input size of a single subtree
	// (bytes consumed between its start tag and the end of its end tag).
	// Zero selects DefaultMaxSubtreeBytes; negative disables the guard.
	MaxSubtreeBytes int64
	// MaxSubtrees bounds the number of subtrees the scanner will attempt
	// for one document. Zero selects DefaultMaxSubtrees; negative
	// disables the guard. Exceeding it is fatal: the budget bounds total
	// work, not one subtree.
	MaxSubtrees int
}

func (o SubtreeOptions) splitDepth() int {
	if o.SplitDepth < 1 {
		return DefaultSplitDepth
	}
	return o.SplitDepth
}

func (o SubtreeOptions) maxSubtreeBytes() int64 {
	switch {
	case o.MaxSubtreeBytes == 0:
		return DefaultMaxSubtreeBytes
	case o.MaxSubtreeBytes < 0:
		return int64(^uint64(0) >> 1)
	default:
		return o.MaxSubtreeBytes
	}
}

func (o SubtreeOptions) maxSubtrees() int { return resolveLimit(o.MaxSubtrees, DefaultMaxSubtrees) }

// Subtree is one completed subtree emitted by a SubtreeScanner.
type Subtree struct {
	// Tree is the materialized subtree, indexed with the subtree root at
	// depth 0 — ready for the pipeline like any parsed document.
	Tree *Tree
	// Index is the subtree's 0-based ordinal within the document,
	// counting every attempted subtree (emitted and guard-tripped), so
	// it is stable across partial failures.
	Index int
	// Path holds the raw tag names of the envelope ancestors, document
	// root first — where in the document the subtree root hangs.
	Path []string
	// StartOffset and EndOffset delimit the subtree's encoded bytes in
	// the input stream.
	StartOffset, EndOffset int64
}

// Bytes is the encoded input size of the subtree.
func (s *Subtree) Bytes() int64 { return s.EndOffset - s.StartOffset }

// SubtreeError reports where incremental parsing stopped. It wraps the
// underlying typed error (an *xsdferrors.LimitError or an error matching
// xsdferrors.ErrMalformedInput), so errors.Is/As dispatch keeps working
// through it.
type SubtreeError struct {
	// Subtree is the 0-based ordinal of the subtree being parsed when
	// the error hit (equal to the count of previously attempted
	// subtrees when the error is document-level).
	Subtree int
	// Offset is the input byte offset where the violation was detected.
	Offset int64
	// Fatal marks document-level failures (malformedness, envelope
	// violations, the MaxSubtrees budget): no further subtree can
	// follow, and every later Next returns the same error. Recoverable
	// errors (per-subtree guard trips) fail one subtree; the next Next
	// continues behind it.
	Fatal bool
	// Err is the underlying typed error.
	Err error
}

func (e *SubtreeError) Error() string {
	return fmt.Sprintf("xmltree: subtree %d (input offset %d): %v", e.Subtree, e.Offset, e.Err)
}

func (e *SubtreeError) Unwrap() error { return e.Err }

// SubtreeScanner incrementally parses one XML document, emitting one
// completed subtree per Next call. Use NewSubtreeScanner; the scanner is
// single-goroutine (pull-based), holds no more than one subtree of
// nodes, and never re-reads input. Each subtree is built by the same
// element builder as Parse, with its own node slab and name table.
type SubtreeScanner struct {
	p *parser // nil once the scan reached its terminal state

	splitDepth      int
	maxSubtreeBytes int64
	maxSubtrees     int

	path       []string // envelope element names currently open
	rootSeen   bool
	rootClosed bool

	index   int // subtrees attempted (emitted + guard-tripped)
	emitted int
	failed  int

	skip   int   // >0: recovering — open elements of a tripped subtree left to close
	err    error // sticky terminal state (a fatal *SubtreeError, or io.EOF)
	offset int64 // input offset at the terminal state
}

// NewSubtreeScanner reads one XML document from r in incremental subtree
// mode.
func NewSubtreeScanner(r io.Reader, opts SubtreeOptions) *SubtreeScanner {
	return &SubtreeScanner{
		p:               newParser(r, opts.ParseOptions),
		splitDepth:      opts.splitDepth(),
		maxSubtreeBytes: opts.maxSubtreeBytes(),
		maxSubtrees:     opts.maxSubtrees(),
	}
}

// Emitted is the number of subtrees successfully returned so far.
func (s *SubtreeScanner) Emitted() int { return s.emitted }

// Failed is the number of subtrees skipped on a recoverable guard trip.
func (s *SubtreeScanner) Failed() int { return s.failed }

// InputOffset is the byte offset the scanner has consumed up to.
func (s *SubtreeScanner) InputOffset() int64 {
	if s.p == nil {
		return s.offset
	}
	return s.p.sc.offset()
}

// finish records the terminal state and returns the parser to the pool.
func (s *SubtreeScanner) finish(err error) {
	s.offset = s.p.sc.offset()
	s.err = err
	s.p.release()
	s.p = nil
}

// fatal records a document-level error; every later Next repeats it.
func (s *SubtreeScanner) fatal(err error) error {
	se := &SubtreeError{Subtree: s.index, Offset: s.p.sc.offset(), Fatal: true, Err: err}
	s.finish(se)
	return se
}

// trip records a per-subtree guard violation: the current subtree (with
// stillOpen elements consumed but unclosed) is abandoned, and the next
// Next call skips to its end tag before continuing.
func (s *SubtreeScanner) trip(idx, stillOpen int, err error) error {
	s.failed++
	s.skip = stillOpen
	return &SubtreeError{Subtree: idx, Offset: s.p.sc.offset(), Err: err}
}

// Next returns the next completed subtree. It returns io.EOF after the
// document ends cleanly; a recoverable *SubtreeError when one subtree
// tripped a guard (call Next again to continue past it); and a fatal
// *SubtreeError on malformed input or a document-level budget violation
// (every later call returns the same error).
func (s *SubtreeScanner) Next() (*Subtree, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.skip > 0 {
		if err := s.skipTripped(); err != nil {
			return nil, s.fatal(err)
		}
	}
	sc := &s.p.sc
	for {
		off := sc.offset()
		kind, err := sc.next()
		if err != nil {
			return nil, s.fatal(malformedBy(err))
		}
		switch kind {
		case tokEOF:
			if !s.rootSeen {
				return nil, s.fatal(malformed("empty document"))
			}
			s.finish(io.EOF)
			return nil, io.EOF
		case tokStart:
			if len(s.path) == 0 {
				if s.rootClosed {
					return nil, s.fatal(malformed("multiple root elements"))
				}
				s.rootSeen = true
			}
			if len(s.path) < s.splitDepth {
				// Envelope element: guard its attribute values (they are
				// decoded into memory either way), record the path, and
				// descend without materializing anything.
				for _, a := range sc.tag.attrs {
					if len(a.value) > s.p.b.maxValue {
						return nil, s.fatal(&xsdferrors.LimitError{
							Limit: "token-bytes", Max: s.p.b.maxValue, Actual: len(a.value)})
					}
				}
				s.path = append(s.path, string(sc.tag.local))
				continue
			}
			if s.index >= s.maxSubtrees {
				return nil, s.fatal(&xsdferrors.LimitError{
					Limit: "subtrees", Max: s.maxSubtrees, Actual: s.index + 1})
			}
			return s.buildSubtree(off)
		case tokEnd:
			s.path = s.path[:len(s.path)-1]
			if len(s.path) == 0 {
				s.rootClosed = true
			}
		case tokText:
			// Envelope text is never materialized, but an oversized chunk
			// was already decoded whole — reject the document like Parse
			// would.
			if len(sc.data) > s.p.b.maxValue {
				return nil, s.fatal(&xsdferrors.LimitError{
					Limit: "token-bytes", Max: s.p.b.maxValue, Actual: len(sc.data)})
			}
		}
	}
}

// buildSubtree materializes one subtree whose start tag (just scanned)
// began at startOff, enforcing the per-subtree guards with depth counted
// from the subtree root.
func (s *SubtreeScanner) buildSubtree(startOff int64) (*Subtree, error) {
	idx := s.index
	s.index++
	sc, b := &s.p.sc, &s.p.b
	b.reset()
	if err := b.start(&sc.tag); err != nil {
		return nil, s.trip(idx, 1, err)
	}
	for {
		if consumed := sc.offset() - startOff; consumed > s.maxSubtreeBytes {
			return nil, s.trip(idx, len(b.stack), &xsdferrors.LimitError{
				Limit: "subtree-bytes", Max: int(s.maxSubtreeBytes), Actual: int(consumed)})
		}
		kind, err := sc.next()
		if err != nil {
			return nil, s.fatal(malformedBy(err))
		}
		switch kind {
		case tokStart:
			if err := b.start(&sc.tag); err != nil {
				return nil, s.trip(idx, len(b.stack)+1, err)
			}
		case tokEnd:
			b.end()
			if len(b.stack) > 0 {
				continue
			}
			s.emitted++
			return &Subtree{
				Tree:        b.tree(),
				Index:       idx,
				Path:        append([]string(nil), s.path...),
				StartOffset: startOff,
				EndOffset:   sc.offset(),
			}, nil
		case tokText:
			if err := b.text(sc.data); err != nil {
				return nil, s.trip(idx, len(b.stack), err)
			}
		}
	}
}

// skipTripped discards the rest of a guard-tripped subtree: tokens are
// read and dropped until its open elements close. Well-formedness is
// still checked (a malformed tail is fatal), but the tripped subtree's
// content is not re-guarded — it already failed. The scanner reports end
// of input inside an open element as malformed, so EOF cannot end a skip.
func (s *SubtreeScanner) skipTripped() error {
	for s.skip > 0 {
		kind, err := s.p.sc.next()
		if err != nil {
			return malformedBy(err)
		}
		switch kind {
		case tokStart:
			s.skip++
		case tokEnd:
			s.skip--
		}
	}
	return nil
}
