package lingproc

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
)

// TestStemKnownPairs exercises the classic Porter test vectors plus the
// domain vocabulary the pipeline depends on.
func TestStemKnownPairs(t *testing.T) {
	cases := map[string]string{
		// Porter's published examples.
		"caresses":     "caress",
		"ponies":       "poni",
		"ties":         "ti",
		"caress":       "caress",
		"cats":         "cat",
		"feed":         "feed",
		"agreed":       "agre",
		"plastered":    "plaster",
		"bled":         "bled",
		"motoring":     "motor",
		"sing":         "sing",
		"conflated":    "conflat",
		"troubled":     "troubl",
		"sized":        "size",
		"hopping":      "hop",
		"tanned":       "tan",
		"falling":      "fall",
		"hissing":      "hiss",
		"fizzed":       "fizz",
		"failing":      "fail",
		"filing":       "file",
		"happy":        "happi",
		"sky":          "sky",
		"relational":   "relat",
		"conditional":  "condit",
		"rational":     "ration",
		"valenci":      "valenc",
		"digitizer":    "digit",
		"operator":     "oper",
		"feudalism":    "feudal",
		"decisiveness": "decis",
		"hopefulness":  "hope",
		"callousness":  "callous",
		"formaliti":    "formal",
		"sensitiviti":  "sensit",
		"sensibiliti":  "sensibl",
		"triplicate":   "triplic",
		"formative":    "form",
		"formalize":    "formal",
		"electriciti":  "electr",
		"electrical":   "electr",
		"hopeful":      "hope",
		"goodness":     "good",
		"revival":      "reviv",
		"allowance":    "allow",
		"inference":    "infer",
		"airliner":     "airlin",
		"gyroscopic":   "gyroscop",
		"adjustable":   "adjust",
		"defensible":   "defens",
		"irritant":     "irrit",
		"replacement":  "replac",
		"adjustment":   "adjust",
		"dependent":    "depend",
		"adoption":     "adopt",
		"homologou":    "homolog",
		"communism":    "commun",
		"activate":     "activ",
		"angulariti":   "angular",
		"homologous":   "homolog",
		"effective":    "effect",
		"bowdlerize":   "bowdler",
		"probate":      "probat",
		"rate":         "rate",
		"cease":        "ceas",
		"controll":     "control",
		"roll":         "roll",
		// Domain words.
		"directed": "direct",
		"actors":   "actor",
		"spies":    "spi",
		"pages":    "page",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortWords(t *testing.T) {
	for _, w := range []string{"", "a", "by", "of"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

// TestStemIdempotentOnCommonVocabulary: stemming a stem should be stable
// for typical dictionary words (not guaranteed for arbitrary strings by the
// Porter algorithm, but it must hold on our pipeline's vocabulary).
func TestStemIdempotentOnVocabulary(t *testing.T) {
	words := []string{"movies", "pictures", "directed", "casting", "stars",
		"plotting", "reviews", "ratings", "customers", "publishers",
		"articles", "authors", "personnel", "families", "addresses"}
	for _, w := range words {
		once := Stem(w)
		if twice := Stem(once); twice != once {
			t.Errorf("Stem not stable on %q: %q -> %q", w, once, twice)
		}
	}
}

// TestStemNeverGrows: the Porter stemmer only removes or rewrites suffixes;
// output is never longer than input+1 (the +e restoration cases).
func TestStemNeverGrows(t *testing.T) {
	f := func(s string) bool {
		// Restrict to ASCII lower-case words, the stemmer's domain.
		clean := make([]byte, 0, len(s))
		for i := 0; i < len(s) && len(clean) < 30; i++ {
			c := s[i] | 0x20
			if c >= 'a' && c <= 'z' {
				clean = append(clean, c)
			}
		}
		w := string(clean)
		return len(Stem(w)) <= len(w)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestStemASCIIOnlyOutput: output of stemming an ASCII word is ASCII.
func TestStemLowercaseInputPreserved(t *testing.T) {
	if got := Stem("Motoring"); got != "motor" {
		t.Errorf("Stem should lower-case: got %q", got)
	}
}

// stemProbe builds words that reach every rule of every step: prefixes
// over vowels, y and consonants (every one up to two letters, and a few
// longer ones of measure 2 and more) followed by a rule suffix or an
// inflection and then by an inflection again, plus upper-case and
// non-ASCII variants.
func stemProbe() []string {
	prefixes := []string{"abac", "bilat", "yoyo", "sensit", "controll", "ayeb", "tyby"}
	for n, level := 0, []string{""}; n < 2; n++ {
		var next []string
		for _, p := range level {
			for _, c := range "aeybcstl" {
				next = append(next, p+string(c))
			}
		}
		prefixes = append(prefixes, next...)
		level = next
	}
	prefixes = append(prefixes, "")
	var endings []string
	for _, rules := range []*ruleTable{&step2Rules, &step3Rules, &step4Rules} {
		for _, group := range rules {
			for _, r := range group {
				endings = append(endings, r.s)
			}
		}
	}
	endings = append(endings, "", "s", "ss", "sses", "ies", "eed", "ed", "ing", "at", "bl", "iz", "ll", "zz",
		"ion", "sion", "tion", "y", "e", "le", "ble", "ful", "ness", "ly", "yy")
	inflections := []string{"", "s", "ed", "ing", "ly", "e"}
	var words []string
	for _, p := range prefixes {
		for _, e := range endings {
			for _, f := range inflections {
				words = append(words, p+e+f)
			}
		}
	}
	n := len(words)
	for _, w := range words[:n:n] {
		if len(w) > 3 {
			words = append(words, strings.ToUpper(w[:2])+w[2:], w[:len(w)-2]+"\xc3\xa9"+w[len(w)-2:])
		}
	}
	return append(words, strings.Repeat("y", 40), strings.Repeat("ab", 30)+"ational", "Motoring", "\xff\xfe\xfd")
}

// TestStemMatchesReference compares Stem with the suffix-by-suffix
// stemmer it replaced on the rule probe, on the known pairs and on every
// word of the benchmark corpus.
func TestStemMatchesReference(t *testing.T) {
	check := func(w string) {
		t.Helper()
		if got, want := Stem(w), refStem(w); got != want {
			t.Fatalf("Stem(%q) = %q, want %q", w, got, want)
		}
	}
	probe := stemProbe()
	for _, w := range probe {
		check(w)
	}
	for _, d := range corpus.GenerateScaled(1, 4) {
		for _, n := range d.Tree.Nodes() {
			for _, w := range Tokenize(n.Raw) {
				check(w)
			}
		}
	}
	if len(probe) < 10000 {
		t.Fatalf("probe has only %d words", len(probe))
	}
}

// TestStemAllocations: a stem that is a prefix of a lower-case input is a
// substring of it; otherwise the stem is the only allocation.
func TestStemAllocations(t *testing.T) {
	for _, c := range []struct {
		word   string
		allocs float64
	}{{"relational", 1}, {"movies", 0}, {"directed", 0}, {"happy", 1}, {"Actors", 1}, {strings.Repeat("ab", 40) + "ness", 2}} {
		if got := testing.AllocsPerRun(100, func() { Stem(c.word) }); got > c.allocs {
			t.Errorf("Stem(%q): %v allocations, want at most %v", c.word, got, c.allocs)
		}
	}
}
