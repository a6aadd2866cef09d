package wordnet

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/semnet"
)

// BenchmarkReadFileScale reads checksummed codec files of generated
// lexicons at the embedded lexicon's size, ten times it, and WordNet 2.1's
// noun count. MaxBranch = Concepts lets each concept pick its hypernym
// among all earlier ones, a random recursive tree whose depth grows
// logarithmically, as WordNet's does; the default shape deepens linearly,
// and its ancestor lists would grow quadratically with the size.
func BenchmarkReadFileScale(b *testing.B) {
	for _, n := range []int{1200, 12000, 117000} {
		b.Run(fmt.Sprintf("concepts=%d", n), func(b *testing.B) {
			net, err := Generate(GenerateConfig{Seed: 1, Concepts: n, Lemmas: n * 2 / 5, MaxBranch: n, PartEvery: 7})
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), "lexicon.semnet")
			if _, err := semnet.WriteFile(path, net, "bench"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := semnet.ReadFile(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
