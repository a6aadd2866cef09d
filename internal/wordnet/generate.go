package wordnet

import (
	"fmt"
	"math/rand"

	"repro/internal/semnet"
)

// GenerateConfig parameterizes the synthetic semantic-network generator used
// by scale and property-based tests.
type GenerateConfig struct {
	// Seed drives the deterministic pseudo-random construction.
	Seed int64
	// Concepts is the total number of synsets (>= 2).
	Concepts int
	// Lemmas is the size of the word vocabulary; polysemy arises because
	// Concepts > Lemmas assigns several concepts to some words.
	Lemmas int
	// MaxBranch bounds how far back a concept may pick its hypernym,
	// controlling the tree shape (larger = bushier and shallower).
	MaxBranch int
	// PartEvery adds one PART-OF edge for every n-th concept (0 disables).
	PartEvery int
}

// DefaultGenerateConfig returns a medium-sized network comparable to the
// embedded lexicon.
func DefaultGenerateConfig(seed int64) GenerateConfig {
	return GenerateConfig{Seed: seed, Concepts: 500, Lemmas: 180, MaxBranch: 6, PartEvery: 7}
}

// Generate builds a deterministic synthetic semantic network: a hypernym
// tree with Zipf-like frequencies (general concepts more frequent),
// synthetic glosses assembled from the lemma vocabulary (so gloss overlap is
// meaningful), and optional PART-OF edges. Identical configs produce
// identical networks.
func Generate(cfg GenerateConfig) (*semnet.Network, error) {
	if cfg.Concepts < 2 {
		return nil, fmt.Errorf("wordnet: Generate needs >= 2 concepts, got %d", cfg.Concepts)
	}
	if cfg.Lemmas < 2 {
		return nil, fmt.Errorf("wordnet: Generate needs >= 2 lemmas, got %d", cfg.Lemmas)
	}
	if cfg.MaxBranch < 1 {
		cfg.MaxBranch = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	vocab := make([]string, cfg.Lemmas)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%03d", i)
	}

	b := semnet.NewBuilder()
	ids := make([]semnet.ConceptID, cfg.Concepts)
	parents := make([]int, cfg.Concepts)
	depthOf := make([]int, cfg.Concepts)
	for i := 0; i < cfg.Concepts; i++ {
		ids[i] = semnet.ConceptID(fmt.Sprintf("c%04d.n.01", i))
		// 1-3 lemmas drawn from the shared vocabulary create polysemy,
		// never more than the vocabulary holds (the draw stays, so every
		// network of three or more lemmas is unchanged).
		nl := min(1+rng.Intn(3), cfg.Lemmas)
		lemmas := make([]string, 0, nl)
		seen := map[string]bool{}
		for len(lemmas) < nl {
			w := vocab[rng.Intn(len(vocab))]
			if !seen[w] {
				seen[w] = true
				lemmas = append(lemmas, w)
			}
		}
		// Synthetic gloss of 5-12 vocabulary words, so glosses of related
		// concepts share phrases and the overlap measure is non-trivial.
		gl := 5 + rng.Intn(8)
		gloss := ""
		for g := 0; g < gl; g++ {
			if g > 0 {
				gloss += " "
			}
			gloss += vocab[rng.Intn(len(vocab))]
		}
		parents[i] = -1
		depth := 1
		if i > 0 {
			// Parent chosen among recent earlier concepts so the hierarchy
			// deepens steadily.
			lo := i - cfg.MaxBranch*4
			if lo < 0 {
				lo = 0
			}
			parents[i] = lo + rng.Intn(i-lo)
			depth = depthOf[parents[i]] + 1
		}
		depthOf[i] = depth
		// Zipf-ish frequency decaying with depth.
		b.AddConcept(ids[i], gloss, 200/float64(depth), lemmas...)
	}
	for i, p := range parents {
		if p >= 0 {
			b.IsA(ids[i], ids[p])
		}
	}
	if cfg.PartEvery > 0 {
		for i := cfg.PartEvery; i < cfg.Concepts; i += cfg.PartEvery {
			b.PartOf(ids[i], ids[i-cfg.PartEvery/2-1])
		}
	}
	return b.Build()
}
