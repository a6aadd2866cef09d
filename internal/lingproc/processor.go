package lingproc

import (
	"strings"
	"sync"

	"repro/internal/xmltree"
)

// Processor memoizes linguistic pre-processing against one fixed lexicon.
// Tag names and value tokens repeat heavily across a corpus (every <star>
// element re-derives the same label and token list), and ProcessLabel's
// compound analysis — splitting, normalization, dictionary segmentation —
// allocates on every call. A Processor computes each distinct raw string
// once and hands out the shared result; a core snapshot owns one per
// lexicon version, so memos can never mix two networks.
//
// Returned label/token slices are shared across calls and across trees:
// callers must treat them as read-only, which every in-tree consumer does
// (the disambiguator and selectors only read Node.Tokens).
//
// Processor is safe for concurrent use; shards keep batch workers from
// serializing on one lock.
type Processor struct {
	lex    Lexicon
	shards [procShardCount]procShard
}

const procShardCount = 16

type labelEntry struct {
	label  string
	tokens []string
}

type tokenEntry struct {
	tok    string
	tokens []string // one-element slice for token leaves, shared
	ok     bool
}

type procShard struct {
	mu     sync.RWMutex
	labels map[string]labelEntry
	tokens map[string]tokenEntry
}

// NewProcessor returns an empty memoizing processor over lex (nil means
// the empty lexicon, matching the package-level functions).
func NewProcessor(lex Lexicon) *Processor {
	if lex == nil {
		lex = emptyLexicon{}
	}
	p := &Processor{lex: lex}
	for i := range p.shards {
		p.shards[i].labels = make(map[string]labelEntry)
		p.shards[i].tokens = make(map[string]tokenEntry)
	}
	return p
}

// procShardOf is FNV-1a over the raw string, reduced to a shard index.
func procShardOf(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h % procShardCount
}

// Label is ProcessLabel memoized per raw tag name. The returned token
// slice is shared: read-only.
func (p *Processor) Label(tag string) (string, []string) {
	sh := &p.shards[procShardOf(tag)]
	sh.mu.RLock()
	e, ok := sh.labels[tag]
	sh.mu.RUnlock()
	if ok {
		return e.label, e.tokens
	}
	label, tokens := ProcessLabel(tag, p.lex)
	sh.mu.Lock()
	sh.labels[tag] = labelEntry{label: label, tokens: tokens}
	sh.mu.Unlock()
	return label, tokens
}

// ValueToken is ProcessValueToken memoized per raw token, returning the
// normalized token, its shared one-element token slice, and whether the
// token survives stop-word removal.
func (p *Processor) ValueToken(tok string) (string, []string, bool) {
	sh := &p.shards[procShardOf(tok)]
	sh.mu.RLock()
	e, ok := sh.tokens[tok]
	sh.mu.RUnlock()
	if ok {
		return e.tok, e.tokens, e.ok
	}
	// Raw tokens may be substrings of a whole text value (Tokenize returns
	// them in place); the memo outlives the tree, so it keeps a copy
	// rather than pinning the value.
	tok = strings.Clone(tok)
	w, keep := ProcessValueToken(tok, p.lex)
	e = tokenEntry{tok: w, ok: keep}
	if keep {
		e.tokens = []string{w}
	}
	sh.mu.Lock()
	sh.tokens[tok] = e
	sh.mu.Unlock()
	return e.tok, e.tokens, e.ok
}

// ProcessTree is the package-level ProcessTree routed through the memos:
// the identical walk, label analysis, and stop-word removal, with each
// distinct raw string computed once per Processor lifetime.
func (p *Processor) ProcessTree(t *xmltree.Tree) {
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		kept := n.Children[:0]
		for _, c := range n.Children {
			if c.Kind == xmltree.Token {
				w, toks, ok := p.ValueToken(c.Raw)
				if !ok {
					continue
				}
				c.Label = w
				c.Tokens = toks
			}
			kept = append(kept, c)
		}
		n.Children = kept
		for _, c := range n.Children {
			if c.Kind != xmltree.Token {
				c.Label, c.Tokens = p.Label(c.Raw)
			}
			walk(c)
		}
	}
	if t.Root != nil {
		t.Root.Label, t.Root.Tokens = p.Label(t.Root.Raw)
		walk(t.Root)
	}
	t.Reindex()
}
