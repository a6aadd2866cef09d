package semnet_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/semnet"
	"repro/internal/wordnet"
)

// TestLoadMatchesReference: Load and ReadFile build the same network as
// the string-keyed load path they replaced, field for field and bit for
// bit, on the embedded lexicon, on generated lexicons of several seeds and
// shapes, and on hand-written edge cases and malformed records.
func TestLoadMatchesReference(t *testing.T) {
	t.Run("embedded", func(t *testing.T) {
		path := writeEmbedded(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		content := data[:bytes.LastIndexByte(data[:len(data)-1], '\n')+1]
		if err := semnet.LoadMatchesReference(content); err != nil {
			t.Fatal(err)
		}
		n, _, err := semnet.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := semnet.NetworkMatchesReference(n, content); err != nil {
			t.Fatal(err)
		}
	})
	shapes := []wordnet.GenerateConfig{
		wordnet.DefaultGenerateConfig(1),
		wordnet.DefaultGenerateConfig(2),
		{Seed: 3, Concepts: 400, Lemmas: 40, MaxBranch: 1, PartEvery: 3},   // deep chains, heavy polysemy
		{Seed: 4, Concepts: 2000, Lemmas: 800, MaxBranch: 2000},            // logarithmic depth
		{Seed: 5, Concepts: 300, Lemmas: 3, MaxBranch: 50, PartEvery: 2},   // three lemmas, about 200 senses each
		{Seed: 6, Concepts: 800, Lemmas: 5000, MaxBranch: 3, PartEvery: 0}, // more lemmas than concepts
	}
	for _, cfg := range shapes {
		t.Run(fmt.Sprintf("generated/seed=%d,concepts=%d", cfg.Seed, cfg.Concepts), func(t *testing.T) {
			net, err := wordnet.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := net.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if err := semnet.LoadMatchesReference(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("edge-cases", func(t *testing.T) {
		semnet.EdgeCasesMatchReference(t.Errorf)
	})
}
