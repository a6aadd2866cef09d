package semnet_test

import (
	"slices"
	"testing"

	"repro/internal/wordnet"
)

// TestExpandedGlossInterned: on the embedded lexicon, every concept's
// interned occurrence list spells exactly the extended gloss — its own
// gloss tokens followed by each neighbor's, in edge order — with every
// position present once, sorted by token id and then position, and with
// one token id per distinct stem across the whole network.
func TestExpandedGlossInterned(t *testing.T) {
	net := wordnet.Default()
	idOf := make(map[string]int32)
	stemOf := make(map[int32]string)
	for _, id := range net.Concepts() {
		want := net.GlossTokens(id)
		for _, e := range net.Edges(id) {
			want = append(want, net.GlossTokens(e.To)...)
		}
		if got := net.ExpandedGlossTokens(id); !slices.Equal(got, want) {
			t.Fatalf("%s: ExpandedGlossTokens = %q, want %q", id, got, want)
		}
		d, _ := net.Dense(id)
		occ := net.GlossOccurrencesDense(d)
		if len(occ) != len(want) {
			t.Fatalf("%s: %d occurrences for %d tokens", id, len(occ), len(want))
		}
		seen := make([]bool, len(occ))
		for i, o := range occ {
			if i > 0 {
				p := occ[i-1]
				if p.Tok > o.Tok || p.Tok == o.Tok && p.Pos >= o.Pos {
					t.Fatalf("%s: occurrences %v, %v out of order", id, p, o)
				}
			}
			if o.Pos < 0 || int(o.Pos) >= len(occ) || seen[o.Pos] {
				t.Fatalf("%s: position %d missing, repeated or out of range", id, o.Pos)
			}
			seen[o.Pos] = true
			stem := want[o.Pos]
			if tok, ok := idOf[stem]; ok && tok != o.Tok {
				t.Fatalf("stem %q has token ids %d and %d", stem, tok, o.Tok)
			}
			if s, ok := stemOf[o.Tok]; ok && s != stem {
				t.Fatalf("token id %d names stems %q and %q", o.Tok, s, stem)
			}
			idOf[stem], stemOf[o.Tok] = o.Tok, stem
		}
	}
	if len(idOf) == 0 {
		t.Fatal("the embedded lexicon has no gloss tokens")
	}
	if _, ok := net.Dense("no.such.concept"); ok || net.ExpandedGlossTokens("no.such.concept") != nil ||
		net.GlossTokens("no.such.concept") != nil {
		t.Error("unknown concepts must have no gloss")
	}
}
