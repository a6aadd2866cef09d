package lingproc

import (
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzStem: on arbitrary bytes the Porter stemmer must never panic, must
// keep output within the input length bound (+1 for the e-restoration
// cases) and must equal the suffix-by-suffix stemmer it replaced.
func FuzzStem(f *testing.F) {
	for _, s := range []string{"caresses", "relational", "hopping", "sky", "", "a", "motoring", "électricité", "yyyyy", "SYZYGY"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, w string) {
		got := Stem(w)
		if len(got) > len(w)+1 {
			t.Fatalf("Stem(%q) = %q grew beyond bound", w, got)
		}
		if want := refStem(w); got != want {
			t.Fatalf("Stem(%q) = %q, want %q", w, got, want)
		}
	})
}

// FuzzSplitCompound: splitting must never panic, never lose all content
// for non-empty letter input, and always lower-case its output.
func FuzzSplitCompound(f *testing.F) {
	for _, s := range []string{"FirstName", "Directed_By", "a", "", "XMLDoc", "ALLCAPS", "x-y.z"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, tag string) {
		if !utf8.ValidString(tag) {
			return
		}
		terms := SplitCompound(tag)
		if len(terms) == 0 {
			t.Fatalf("SplitCompound(%q) returned nothing", tag)
		}
		for _, term := range terms {
			if term != strings.ToLower(term) {
				t.Fatalf("SplitCompound(%q) produced non-lowercase %q", tag, term)
			}
		}
	})
}

// FuzzTokenize: tokens contain only letters and digits, lower-cased, and
// equal the reference tokenizer's on every input, invalid UTF-8 included.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{"A wheelchair bound photographer", "1954!", "", "--", "naïve café"} {
		f.Add(s)
	}
	for _, s := range tokenizeEdgeCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := Tokenize(s)
		for _, tok := range got {
			if tok == "" {
				t.Fatal("empty token")
			}
			if tok != strings.ToLower(tok) {
				t.Fatalf("token %q not lower-cased", tok)
			}
		}
		if want := referenceTokenize(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", s, got, want)
		}
	})
}
