package simmeasure

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/semnet"
	"repro/internal/wordnet"
)

// phraseOverlap is the reference implementation of the extended gloss
// overlap raw score that glossOverlap must reproduce bit for bit:
// repeatedly find the longest common consecutive word sequence between a
// and b, add its squared length, remove it from consideration, until no
// overlap of length >= 1 remains. A dynamic-programming pass finds the
// longest common substring of tokens.
func phraseOverlap(a, b []string) float64 {
	// Work on copies with removable positions marked by "".
	ac := append([]string(nil), a...)
	bc := append([]string(nil), b...)
	var score float64
	for {
		ai, bi, l := longestCommonRun(ac, bc)
		if l == 0 {
			return score
		}
		score += float64(l * l)
		for k := 0; k < l; k++ {
			ac[ai+k] = "\x00a" // sentinel: never matches
			bc[bi+k] = "\x00b"
		}
	}
}

// longestCommonRun returns the start indexes and length of the longest
// common consecutive run of equal tokens in a and b (0 when none). Among
// runs of equal length it returns the one whose end cell comes first in
// row-major order (a = rows, b = columns).
func longestCommonRun(a, b []string) (ai, bi, l int) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 0, 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > l {
					l = cur[j]
					ai = i - l
					bi = j - l
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	return ai, bi, l
}

// occurrences returns the occurrence list of a token-id sequence in the
// order semnet stores it: sorted by token id, then position.
func occurrences(seq []int32) []semnet.GlossOcc {
	occ := make([]semnet.GlossOcc, len(seq))
	for i, t := range seq {
		occ[i] = semnet.GlossOcc{Tok: t, Pos: int32(i)}
	}
	slices.SortFunc(occ, func(x, y semnet.GlossOcc) int {
		if c := cmp.Compare(x.Tok, y.Tok); c != 0 {
			return c
		}
		return cmp.Compare(x.Pos, y.Pos)
	})
	return occ
}

// tokenStrings spells a token-id sequence over the 4-symbol test alphabet
// as the strings the reference dynamic program compares.
func tokenStrings(seq []int32) []string {
	out := make([]string, len(seq))
	for i, t := range seq {
		out[i] = [...]string{"t0", "t1", "t2", "t3"}[t]
	}
	return out
}

// checkOverlap compares the kernel with the reference on two token-id
// sequences, in both argument orders.
func checkOverlap(t *testing.T, a, b []int32) {
	t.Helper()
	oa, ob := occurrences(a), occurrences(b)
	sa, sb := tokenStrings(a), tokenStrings(b)
	for _, c := range []struct {
		x, y   []semnet.GlossOcc
		sx, sy []string
	}{{oa, ob, sa, sb}, {ob, oa, sb, sa}} {
		got, want := glossOverlap(c.x, c.y), phraseOverlap(c.sx, c.sy)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("glossOverlap(%v, %v) = %v, reference %v", c.sx, c.sy, got, want)
		}
	}
}

// TestGlossOverlapMatchesReference: the kernel returns exactly the
// reference dynamic program's raw score on embedded-lexicon gloss pairs
// and on short random sequences over tiny alphabets, where runs repeat
// and tie and the tie-break decides which phrase is removed first.
func TestGlossOverlapMatchesReference(t *testing.T) {
	net := wordnet.Default()
	ids := net.Concepts()
	glosses := make([][]string, len(ids))
	for i, id := range ids {
		glosses[i] = net.ExpandedGlossTokens(id)
	}
	pairs, overlapping := 0, 0
	for a := range ids {
		oa := net.GlossOccurrencesDense(semnet.DenseID(a))
		for c := a; c < len(ids); c += 3 {
			got := glossOverlap(oa, net.GlossOccurrencesDense(semnet.DenseID(c)))
			want := phraseOverlap(glosses[a], glosses[c])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("(%s, %s): glossOverlap = %v, reference %v", ids[a], ids[c], got, want)
			}
			pairs++
			if want > 0 {
				overlapping++
			}
		}
	}
	if overlapping == 0 {
		t.Fatal("no lexicon pair shares a gloss token: the sweep proves nothing")
	}
	t.Logf("%d lexicon pairs, %d with some overlap", pairs, overlapping)

	rng := rand.New(rand.NewSource(17))
	seq := func(alphabet int) []int32 {
		s := make([]int32, 1+rng.Intn(14))
		for i := range s {
			s[i] = int32(rng.Intn(alphabet))
		}
		return s
	}
	for n := 0; n < 300000; n++ {
		alphabet := 1 + rng.Intn(4)
		checkOverlap(t, seq(alphabet), seq(alphabet))
	}
}

// FuzzGlossOverlap maps two byte strings to token sequences over a
// 4-symbol alphabet, so runs repeat and tie, and requires the kernel's raw
// score to equal the reference dynamic program's in both argument orders.
func FuzzGlossOverlap(f *testing.F) {
	f.Add([]byte("abcabc"), []byte("cabcab"))
	f.Add([]byte("aaaa"), []byte("aa"))
	f.Add([]byte("abab"), []byte("baba"))
	f.Add([]byte(""), []byte("x"))
	f.Fuzz(func(t *testing.T, x, y []byte) {
		const maxLen = 128 // the reference is cubic in the worst case
		tokens := func(p []byte) []int32 {
			if len(p) > maxLen {
				p = p[:maxLen]
			}
			s := make([]int32, len(p))
			for i, c := range p {
				s[i] = int32(c % 4)
			}
			return s
		}
		checkOverlap(t, tokens(x), tokens(y))
	})
}
