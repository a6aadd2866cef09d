// Package lingproc implements the linguistic pre-processing module of XSDF
// (§3.2 of the paper): tokenization, stop-word removal, stemming, and
// compound-word handling for XML element/attribute tag names and text
// values.
//
// Three input cases are distinguished:
//
//  1. tag names consisting of an individual word — kept as-is, stemmed only
//     when the word is unknown to the reference semantic network;
//  2. tag names consisting of a compound word ("Directed_By", "FirstName") —
//     if the two terms match a single concept in the network ("first name")
//     they become one token, otherwise the terms are kept within a single
//     node label to be disambiguated together;
//  3. text values — tokenized on whitespace/punctuation, stop words removed,
//     remaining tokens stemmed when unknown, each mapped to its own leaf
//     node.
package lingproc

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/xmltree"
)

// Lexicon is the minimal view of a semantic network the pre-processor needs:
// membership tests for words and expressions. *semnet.Network satisfies it.
type Lexicon interface {
	// HasLemma reports whether the word or multi-word expression (space
	// separated) names at least one concept.
	HasLemma(lemma string) bool
}

// emptyLexicon is used when no lexicon is supplied: nothing matches, so
// every word is stemmed and compounds always split.
type emptyLexicon struct{}

func (emptyLexicon) HasLemma(string) bool { return false }

// stopWords is a compact English stop-word list suited to XML tag names and
// short text values. Derived from the classic van Rijsbergen list.
var stopWords = map[string]struct{}{}

func init() {
	for _, w := range strings.Fields(`a about above after again all am an and
		any are as at be because been before being below between both but by
		did do does doing down during each few for from further had has have
		having he her here hers him his how i if in into is it its itself me
		more most my no nor not of off on once only or other our ours out
		over own same she so some such than that the their theirs them then
		there these they this those through to too under until up very was we
		were what when where which while who whom why with you your yours`) {
		stopWords[w] = struct{}{}
	}
}

// IsStopWord reports whether the lower-cased word is on the stop-word list.
func IsStopWord(w string) bool {
	_, ok := stopWords[strings.ToLower(w)]
	return ok
}

// Tokenize splits a text value into lower-cased word tokens, breaking on any
// rune that is neither a letter nor a digit. Pure-digit tokens are kept
// (years, quantities) since they can carry gold labels in the corpus.
//
// ASCII bytes other than letters and digits always separate words, so the
// value is cut at them first. A run of ASCII letters and digits is a word
// as it stands, returned as a substring of s unless it holds upper case;
// a run with non-ASCII bytes is split rune by rune. The words are counted
// before they are collected, so the result is allocated once.
func Tokenize(s string) []string {
	_, n := words(s, nil)
	if n == 0 {
		return nil
	}
	out, _ := words(s, make([]string, 0, n))
	return out
}

// words walks the words of s, appending them to out when out is non-nil,
// and returns out and the word count.
func words(s string, out []string) ([]string, int) {
	n := 0
	for i := 0; i < len(s); {
		if !wordByte(s[i]) {
			i++
			continue
		}
		start, upper, ascii := i, false, true
		for ; i < len(s) && wordByte(s[i]); i++ {
			c := s[i]
			upper = upper || 'A' <= c && c <= 'Z'
			ascii = ascii && c < utf8.RuneSelf
		}
		run := s[start:i]
		switch {
		case !ascii:
			var k int
			out, k = unicodeWords(run, out)
			n += k
		case out == nil:
			n++
		case upper:
			out = append(out, strings.ToLower(run))
		default:
			out = append(out, run)
		}
	}
	return out, n
}

// wordByte reports whether c may belong to a word: an ASCII letter or
// digit, or any byte of a multi-byte sequence.
func wordByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c >= utf8.RuneSelf
}

// unicodeWords splits a run holding non-ASCII bytes at every rune that is
// neither a letter nor a digit (invalid UTF-8 decodes to U+FFFD, which is
// neither), appending the lower-cased words to out when it is non-nil.
func unicodeWords(run string, out []string) ([]string, int) {
	n, start := 0, -1
	for i, r := range run {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			n++
			if out != nil {
				out = append(out, strings.ToLower(run[start:i]))
			}
			start = -1
		}
	}
	if start >= 0 {
		n++
		if out != nil {
			out = append(out, strings.ToLower(run[start:]))
		}
	}
	return out, n
}

// SplitCompound breaks a tag name into its constituent terms, handling the
// two compound conventions of §3.2: special delimiters (underscore, hyphen,
// dot) and camel case ("FirstName" -> ["first", "name"]). A simple name
// yields a single term. All terms are lower-cased.
func SplitCompound(tag string) []string {
	// First break on explicit delimiters.
	fields := strings.FieldsFunc(tag, func(r rune) bool {
		return r == '_' || r == '-' || r == '.' || r == ':' || r == ' '
	})
	var terms []string
	for _, f := range fields {
		terms = append(terms, splitCamel(f)...)
	}
	if len(terms) == 0 {
		return []string{strings.ToLower(tag)}
	}
	return terms
}

// splitCamel splits camelCase and PascalCase words at lower-to-upper
// boundaries, keeping acronym runs together ("XMLDoc" -> ["xml", "doc"]).
func splitCamel(s string) []string {
	runes := []rune(s)
	var parts []string
	start := 0
	for i := 1; i < len(runes); i++ {
		prevLower := unicode.IsLower(runes[i-1])
		curUpper := unicode.IsUpper(runes[i])
		// boundary: aB
		if prevLower && curUpper {
			parts = append(parts, strings.ToLower(string(runes[start:i])))
			start = i
			continue
		}
		// boundary: ABc (end of acronym run)
		if curUpper && i+1 < len(runes) && unicode.IsUpper(runes[i-1]) && unicode.IsLower(runes[i+1]) {
			parts = append(parts, strings.ToLower(string(runes[start:i])))
			start = i
		}
	}
	parts = append(parts, strings.ToLower(string(runes[start:])))
	return parts
}

// Normalize maps a single word to the form used for lexicon lookup: the
// word itself when the lexicon knows it, otherwise a naive plural
// reduction, otherwise its Porter stem (the paper stems only "when the word
// is not found in the reference semantic network"). Plural reduction is
// tried before Porter because the Porter stem of regular plurals often
// undershoots dictionary lemmas ("movies" -> "movi").
func Normalize(word string, lex Lexicon) string {
	w := strings.ToLower(word)
	if lex.HasLemma(w) {
		return w
	}
	for _, s := range singularCandidates(w) {
		if lex.HasLemma(s) {
			return s
		}
	}
	if s := Stem(w); lex.HasLemma(s) {
		return s
	}
	return w
}

// singularCandidates lists plausible singular forms of a regular English
// plural, most specific first ("movies" -> "movie"; "babies" -> "baby";
// "boxes" -> "box"). Empty when the word does not look plural.
func singularCandidates(w string) []string {
	switch {
	case strings.HasSuffix(w, "ies") && len(w) > 4:
		return []string{w[:len(w)-1], w[:len(w)-3] + "y"}
	case strings.HasSuffix(w, "es") && len(w) > 3:
		return []string{w[:len(w)-1], w[:len(w)-2]}
	case strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss") && len(w) > 3:
		return []string{w[:len(w)-1]}
	default:
		return nil
	}
}

// ProcessLabel pre-processes one tag name and returns the node label and its
// constituent tokens following the three-case analysis of §3.2:
//
//   - individual word:        label == the normalized word, one token;
//   - compound matching a single concept ("first name"): label == the joined
//     expression, one token;
//   - compound with no single match: label joins the surviving terms with a
//     space and Tokens carries them separately, so the disambiguator can run
//     the compound special case (Eqs. 10/12).
func ProcessLabel(tag string, lex Lexicon) (label string, tokens []string) {
	if lex == nil {
		lex = emptyLexicon{}
	}
	terms := SplitCompound(tag)
	if len(terms) == 1 {
		w := Normalize(terms[0], lex)
		if !lex.HasLemma(w) {
			// Undelimited compounds ("firstname", "lastname") carry no case
			// or delimiter hints; fall back to dictionary segmentation into
			// two known words.
			if t1, t2, ok := segment(w, lex); ok {
				terms = []string{t1, t2}
			}
		}
		if len(terms) == 1 {
			return w, []string{w}
		}
	}
	// Compound: does the joined expression name a single concept?
	joined := strings.Join(terms, " ")
	if lex.HasLemma(joined) {
		return joined, []string{joined}
	}
	// No single match: remove stop words, normalize each surviving term,
	// keep them in one label to be disambiguated together.
	var kept []string
	for _, t := range terms {
		if IsStopWord(t) {
			continue
		}
		kept = append(kept, Normalize(t, lex))
	}
	if len(kept) == 0 {
		// Degenerate all-stop-word tag; keep the raw terms.
		kept = terms
	}
	if len(kept) == 1 {
		return kept[0], kept
	}
	// The paper notes tags rarely exceed two terms; keep the first two.
	if len(kept) > 2 {
		kept = kept[:2]
	}
	return strings.Join(kept, " "), kept
}

// segment splits an unknown word into two dictionary words, preferring the
// longest known prefix ("firstname" -> "first" + "name"). Both halves must
// be known and at least two letters long.
func segment(w string, lex Lexicon) (string, string, bool) {
	for i := len(w) - 2; i >= 2; i-- {
		if lex.HasLemma(w[:i]) && lex.HasLemma(w[i:]) {
			return w[:i], w[i:], true
		}
	}
	return "", "", false
}

// ProcessValueToken pre-processes one token of a text value. It returns the
// normalized token and true, or "" and false when the token is a stop word
// and should be dropped.
func ProcessValueToken(tok string, lex Lexicon) (string, bool) {
	if lex == nil {
		lex = emptyLexicon{}
	}
	w := strings.ToLower(tok)
	if IsStopWord(w) {
		return "", false
	}
	return Normalize(w, lex), true
}

// ProcessTree applies the full linguistic pre-processing pipeline to every
// node of t in place: element/attribute labels go through ProcessLabel,
// token leaves through ProcessValueToken (stop-word tokens are removed from
// the tree). The tree is reindexed before returning.
func ProcessTree(t *xmltree.Tree, lex Lexicon) {
	if lex == nil {
		lex = emptyLexicon{}
	}
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		kept := n.Children[:0]
		for _, c := range n.Children {
			if c.Kind == xmltree.Token {
				w, ok := ProcessValueToken(c.Raw, lex)
				if !ok {
					continue
				}
				c.Label = w
				c.Tokens = []string{w}
			}
			kept = append(kept, c)
		}
		n.Children = kept
		for _, c := range n.Children {
			if c.Kind != xmltree.Token {
				c.Label, c.Tokens = ProcessLabel(c.Raw, lex)
			}
			walk(c)
		}
	}
	if t.Root != nil {
		t.Root.Label, t.Root.Tokens = ProcessLabel(t.Root.Raw, lex)
		walk(t.Root)
	}
	t.Reindex()
}
