package lingproc

import (
	"bytes"
	"encoding/xml"
	"io"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"repro/internal/corpus"
)

// referenceTokenize is the rune-by-rune Tokenize the ASCII fast path
// replaced, kept as its oracle.
func referenceTokenize(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

var tokenizeEdgeCases = []string{
	"", " ", "\n\t ", "a", "A", "Hello World", "rear-window 1954!", "x_y.z:w", "ÀB", "naïve café", "İstanbul",
	"ΣΑΣ", "straße", "ǅemal", "a\xffb", "\xff", "\xc3", "a\xc3", "\xc3a", "\xed\xa0\x80", "\xef\xbf\xbd", "a b",
	"x—y", "١٢٣ ٤", "日本語 テキスト", "Ⅻ", "á", "ﬁle", "ABC def GHI", "123abc", " a", "KELVIN K",
}

// TestTokenizeMatchesReference compares Tokenize with the reference on
// edge cases and on every text value of the serialized benchmark corpus.
func TestTokenizeMatchesReference(t *testing.T) {
	check := func(s string) {
		t.Helper()
		if got, want := Tokenize(s), referenceTokenize(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", s, got, want)
		}
	}
	for _, s := range tokenizeEdgeCases {
		check(s)
	}
	values := 0
	for seed := int64(1); seed <= 3; seed++ {
		for _, d := range corpus.GenerateScaled(seed, 4) {
			var buf bytes.Buffer
			if err := d.Tree.WriteXML(&buf, false); err != nil {
				t.Fatal(err)
			}
			dec := xml.NewDecoder(&buf)
			for {
				tok, err := dec.Token()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				switch tk := tok.(type) {
				case xml.CharData:
					check(string(tk))
					values++
				case xml.StartElement:
					for _, a := range tk.Attr {
						check(a.Value)
						values++
					}
				}
			}
		}
	}
	if values == 0 {
		t.Fatal("no text values in the corpus")
	}
}
