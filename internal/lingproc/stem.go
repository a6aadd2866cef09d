package lingproc

// Stem applies the Porter stemming algorithm (Porter, 1980) to a single
// lower-case word and returns its stem. Words of length <= 2 are returned
// unchanged, per the original algorithm. Upper-case ASCII letters are
// lowered byte-wise; non-ASCII bytes pass through untouched (the
// algorithm's suffix rules only ever match ASCII), so output never grows
// beyond the input (+1 for the e-restoration cases).
//
// The word is rewritten in a stack buffer, and a stem that is a prefix of
// the input — most stems of lower-case words — is returned as a substring,
// so a call allocates at most the stem itself.
func Stem(word string) string {
	if len(word) <= 2 {
		return word
	}
	var buf [32]byte
	w := buf[:0]
	if len(word) >= len(buf) {
		w = make([]byte, 0, len(word)+1)
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		w = append(w, c)
	}
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = applyRules(w, &step2Rules, 0)
	w = applyRules(w, &step3Rules, 0)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	if len(w) <= len(word) && string(w) == word[:len(w)] {
		return word[:len(w)]
	}
	return string(w)
}

// isVowelLetter reports whether c is a, e, i, o or u — a vowel whatever
// precedes it.
func isVowelLetter(c byte) bool {
	return c == 'a' || c == 'e' || c == 'i' || c == 'o' || c == 'u'
}

// isCons reports whether w[i] is a consonant in Porter's sense: a letter
// other than a, e, i, o, u, and other than y preceded by a consonant. A y
// is a consonant at the start of the word, so along a run of y's the
// answer alternates from the letter before the run (a vowel when the run
// starts the word).
func isCons(w []byte, i int) bool {
	k := i
	for k >= 0 && w[k] == 'y' {
		k--
	}
	base := k >= 0 && !isVowelLetter(w[k])
	if (i-k)%2 == 1 {
		return !base
	}
	return base
}

// measure computes m, the number of VC sequences in w[:end]: the
// consonants that directly follow a vowel.
func measure(w []byte, end int) int {
	m := 0
	prevVowel := false
	for i := 0; i < end; i++ {
		c := w[i]
		vowel := isVowelLetter(c) || c == 'y' && i > 0 && !prevVowel
		if !vowel && prevVowel {
			m++
		}
		prevVowel = vowel
	}
	return m
}

// hasVowel reports whether w[:end] contains a vowel. Every letter before
// the first vowel is a consonant, so a y there is a vowel unless it starts
// the word.
func hasVowel(w []byte, end int) bool {
	for i := 0; i < end; i++ {
		if c := w[i]; isVowelLetter(c) || c == 'y' && i > 0 {
			return true
		}
	}
	return false
}

// doubleCons reports whether w ends with a double consonant.
func doubleCons(w []byte) bool {
	n := len(w)
	if n < 2 {
		return false
	}
	return w[n-1] == w[n-2] && isCons(w, n-1)
}

// cvc reports whether w[:end] ends consonant-vowel-consonant where the final
// consonant is not w, x, or y.
func cvc(w []byte, end int) bool {
	if end < 3 {
		return false
	}
	if !isCons(w, end-3) || isCons(w, end-2) || !isCons(w, end-1) {
		return false
	}
	switch w[end-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// endsIn reports whether w's last letter is c.
func endsIn(w []byte, c byte) bool { return len(w) > 0 && w[len(w)-1] == c }

func hasSuffix(w []byte, s string) bool {
	if len(w) < len(s) {
		return false
	}
	return string(w[len(w)-len(s):]) == s
}

func step1a(w []byte) []byte {
	if !endsIn(w, 's') {
		return w
	}
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2]
	case hasSuffix(w, "ies"):
		return w[:len(w)-2]
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if !endsIn(w, 'd') && !endsIn(w, 'g') {
		return w
	}
	if hasSuffix(w, "eed") {
		if measure(w, len(w)-3) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	cleanup := false
	if hasSuffix(w, "ed") && hasVowel(w, len(w)-2) {
		w = w[:len(w)-2]
		cleanup = true
	} else if hasSuffix(w, "ing") && hasVowel(w, len(w)-3) {
		w = w[:len(w)-3]
		cleanup = true
	}
	if !cleanup {
		return w
	}
	switch {
	case hasSuffix(w, "at"), hasSuffix(w, "bl"), hasSuffix(w, "iz"):
		return append(w, 'e')
	case doubleCons(w):
		last := w[len(w)-1]
		if last != 'l' && last != 's' && last != 'z' {
			return w[:len(w)-1]
		}
	case measure(w, len(w)) == 1 && cvc(w, len(w)):
		return append(w, 'e')
	}
	return w
}

func step1c(w []byte) []byte {
	if endsIn(w, 'y') && hasVowel(w, len(w)-1) {
		w[len(w)-1] = 'i'
	}
	return w
}

// suffixRule replaces suffix s by r when the measure of the stem before
// s exceeds the step's bound.
type suffixRule struct{ s, r string }

// ruleTable holds a step's rules grouped by the second-to-last letter of
// their suffix, each group in the step's list order. A word can only end
// in a suffix whose penultimate letter it shares, so trying its group
// finds the same first match as trying the whole list — the dispatch
// Porter's reference implementation makes with a switch on that letter.
type ruleTable [256][]suffixRule

func groupRules(rules ...suffixRule) (t ruleTable) {
	for _, r := range rules {
		c := r.s[len(r.s)-2]
		t[c] = append(t[c], r)
	}
	return t
}

var step2Rules = groupRules(
	suffixRule{"ational", "ate"}, suffixRule{"tional", "tion"}, suffixRule{"enci", "ence"}, suffixRule{"anci", "ance"},
	suffixRule{"izer", "ize"}, suffixRule{"abli", "able"}, suffixRule{"alli", "al"}, suffixRule{"entli", "ent"},
	suffixRule{"eli", "e"}, suffixRule{"ousli", "ous"}, suffixRule{"ization", "ize"}, suffixRule{"ation", "ate"},
	suffixRule{"ator", "ate"}, suffixRule{"alism", "al"}, suffixRule{"iveness", "ive"}, suffixRule{"fulness", "ful"},
	suffixRule{"ousness", "ous"}, suffixRule{"aliti", "al"}, suffixRule{"iviti", "ive"}, suffixRule{"biliti", "ble"},
)

var step3Rules = groupRules(
	suffixRule{"icate", "ic"}, suffixRule{"ative", ""}, suffixRule{"alize", "al"}, suffixRule{"iciti", "ic"},
	suffixRule{"ical", "ic"}, suffixRule{"ful", ""}, suffixRule{"ness", ""},
)

// step4Rules drops each suffix when the measure exceeds 1.
var step4Rules = groupRules(
	suffixRule{"al", ""}, suffixRule{"ance", ""}, suffixRule{"ence", ""}, suffixRule{"er", ""},
	suffixRule{"ic", ""}, suffixRule{"able", ""}, suffixRule{"ible", ""}, suffixRule{"ant", ""},
	suffixRule{"ement", ""}, suffixRule{"ment", ""}, suffixRule{"ent", ""}, suffixRule{"ou", ""},
	suffixRule{"ism", ""}, suffixRule{"ate", ""}, suffixRule{"iti", ""}, suffixRule{"ous", ""},
	suffixRule{"ive", ""}, suffixRule{"ize", ""},
)

// applyRules rewrites the first rule of t whose suffix w ends in, when the
// measure of the stem before it exceeds m; a matching suffix ends the
// step either way. The replacement is never longer than the suffix, so
// the rewrite stays in w's buffer.
func applyRules(w []byte, t *ruleTable, m int) []byte {
	if len(w) < 2 {
		return w
	}
	for _, rule := range t[w[len(w)-2]] {
		if !hasSuffix(w, rule.s) {
			continue
		}
		stemEnd := len(w) - len(rule.s)
		if measure(w, stemEnd) > m {
			return append(w[:stemEnd], rule.r...)
		}
		return w
	}
	return w
}

func step4(w []byte) []byte {
	// (m>1 and (*S or *T)) ION -> applies only when no listed suffix
	// matches; none of them ends in n.
	if hasSuffix(w, "ion") {
		stemEnd := len(w) - 3
		if stemEnd > 0 && (w[stemEnd-1] == 's' || w[stemEnd-1] == 't') && measure(w, stemEnd) > 1 {
			return w[:stemEnd]
		}
		return w
	}
	return applyRules(w, &step4Rules, 1)
}

func step5a(w []byte) []byte {
	if !endsIn(w, 'e') {
		return w
	}
	stemEnd := len(w) - 1
	m := measure(w, stemEnd)
	if m > 1 || (m == 1 && !cvc(w, stemEnd)) {
		return w[:stemEnd]
	}
	return w
}

func step5b(w []byte) []byte {
	if endsIn(w, 'l') && doubleCons(w) && measure(w, len(w)) > 1 {
		return w[:len(w)-1]
	}
	return w
}
