package lingproc

// This file keeps the suffix-by-suffix Porter stemmer that Stem replaced,
// verbatim but for the ref prefix on its names, as the oracle of
// TestStemMatchesReference and FuzzStem.

// refStem applies the Porter stemming algorithm (Porter, 1980) to a single
// lower-case word and returns its stem. Words of length <= 2 are returned
// unchanged, per the original algorithm. Upper-case ASCII letters are
// lowered byte-wise; non-ASCII bytes pass through untouched (the
// algorithm's suffix rules only ever match ASCII), so output never grows
// beyond the input (+1 for the e-restoration cases).
func refStem(word string) string {
	if len(word) <= 2 {
		return word
	}
	w := make([]byte, len(word))
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		w[i] = c
	}
	w = refStep1a(w)
	w = refStep1b(w)
	w = refStep1c(w)
	w = refStep2(w)
	w = refStep3(w)
	w = refStep4(w)
	w = refStep5a(w)
	w = refStep5b(w)
	return string(w)
}

// refIsCons reports whether w[i] is a consonant in Porter's sense: a letter
// other than a, e, i, o, u, and other than y preceded by a consonant.
func refIsCons(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !refIsCons(w, i-1)
	default:
		return true
	}
}

// refMeasure computes m, the number of VC sequences in w[:end].
func refMeasure(w []byte, end int) int {
	m := 0
	i := 0
	// skip initial consonants
	for i < end && refIsCons(w, i) {
		i++
	}
	for i < end {
		// in vowel run
		for i < end && !refIsCons(w, i) {
			i++
		}
		if i >= end {
			break
		}
		m++
		for i < end && refIsCons(w, i) {
			i++
		}
	}
	return m
}

// refHasVowel reports whether w[:end] contains a vowel.
func refHasVowel(w []byte, end int) bool {
	for i := 0; i < end; i++ {
		if !refIsCons(w, i) {
			return true
		}
	}
	return false
}

// refDoubleCons reports whether w ends with a double consonant.
func refDoubleCons(w []byte) bool {
	n := len(w)
	if n < 2 {
		return false
	}
	return w[n-1] == w[n-2] && refIsCons(w, n-1)
}

// refCvc reports whether w[:end] ends consonant-vowel-consonant where the final
// consonant is not w, x, or y.
func refCvc(w []byte, end int) bool {
	if end < 3 {
		return false
	}
	if !refIsCons(w, end-3) || refIsCons(w, end-2) || !refIsCons(w, end-1) {
		return false
	}
	switch w[end-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func refHasSuffix(w []byte, s string) bool {
	if len(w) < len(s) {
		return false
	}
	return string(w[len(w)-len(s):]) == s
}

// refReplaceSuffix replaces suffix s with r when the refMeasure of the remaining
// stem is > m. Returns the (possibly new) word and whether it matched s.
func refReplaceSuffix(w []byte, s, r string, m int) ([]byte, bool) {
	if !refHasSuffix(w, s) {
		return w, false
	}
	stemEnd := len(w) - len(s)
	if refMeasure(w, stemEnd) > m {
		return append(w[:stemEnd], r...), true
	}
	return w, true
}

func refStep1a(w []byte) []byte {
	switch {
	case refHasSuffix(w, "sses"):
		return w[:len(w)-2]
	case refHasSuffix(w, "ies"):
		return w[:len(w)-2]
	case refHasSuffix(w, "ss"):
		return w
	case refHasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func refStep1b(w []byte) []byte {
	if refHasSuffix(w, "eed") {
		if refMeasure(w, len(w)-3) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	cleanup := false
	if refHasSuffix(w, "ed") && refHasVowel(w, len(w)-2) {
		w = w[:len(w)-2]
		cleanup = true
	} else if refHasSuffix(w, "ing") && refHasVowel(w, len(w)-3) {
		w = w[:len(w)-3]
		cleanup = true
	}
	if !cleanup {
		return w
	}
	switch {
	case refHasSuffix(w, "at"), refHasSuffix(w, "bl"), refHasSuffix(w, "iz"):
		return append(w, 'e')
	case refDoubleCons(w):
		last := w[len(w)-1]
		if last != 'l' && last != 's' && last != 'z' {
			return w[:len(w)-1]
		}
	case refMeasure(w, len(w)) == 1 && refCvc(w, len(w)):
		return append(w, 'e')
	}
	return w
}

func refStep1c(w []byte) []byte {
	if refHasSuffix(w, "y") && refHasVowel(w, len(w)-1) {
		w[len(w)-1] = 'i'
	}
	return w
}

var refStep2Rules = []struct{ s, r string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func refStep2(w []byte) []byte {
	for _, rule := range refStep2Rules {
		var done bool
		if w, done = refReplaceSuffix(w, rule.s, rule.r, 0); done {
			return w
		}
	}
	return w
}

var refStep3Rules = []struct{ s, r string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func refStep3(w []byte) []byte {
	for _, rule := range refStep3Rules {
		var done bool
		if w, done = refReplaceSuffix(w, rule.s, rule.r, 0); done {
			return w
		}
	}
	return w
}

var refStep4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func refStep4(w []byte) []byte {
	for _, s := range refStep4Suffixes {
		if !refHasSuffix(w, s) {
			continue
		}
		stemEnd := len(w) - len(s)
		if refMeasure(w, stemEnd) > 1 {
			return w[:stemEnd]
		}
		return w
	}
	// (m>1 and (*S or *T)) ION ->
	if refHasSuffix(w, "ion") {
		stemEnd := len(w) - 3
		if stemEnd > 0 && (w[stemEnd-1] == 's' || w[stemEnd-1] == 't') && refMeasure(w, stemEnd) > 1 {
			return w[:stemEnd]
		}
	}
	return w
}

func refStep5a(w []byte) []byte {
	if !refHasSuffix(w, "e") {
		return w
	}
	stemEnd := len(w) - 1
	m := refMeasure(w, stemEnd)
	if m > 1 || (m == 1 && !refCvc(w, stemEnd)) {
		return w[:stemEnd]
	}
	return w
}

func refStep5b(w []byte) []byte {
	if refMeasure(w, len(w)) > 1 && refDoubleCons(w) && w[len(w)-1] == 'l' {
		return w[:len(w)-1]
	}
	return w
}
