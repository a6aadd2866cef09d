//go:build !race

package semnet_test

import (
	"testing"

	"repro/internal/semnet"
	"repro/internal/wordnet"
)

// TestReadFileAllocsPerConcept gates the load path's allocations on the
// embedded lexicon: reading it makes a few hundred allocations in all
// (slabs, maps and the file bytes), not dozens per concept as a
// per-line, per-field, per-map load does (39,603, about 32.6 per
// concept). The race detector's instrumentation allocates on its own,
// hence the build tag.
func TestReadFileAllocsPerConcept(t *testing.T) {
	const budget = 0.5 // allocations per concept
	path := writeEmbedded(t)
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := semnet.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	})
	perConcept := allocs / float64(wordnet.Default().Len())
	t.Logf("%.0f allocations, %.3f per concept", allocs, perConcept)
	if perConcept > budget {
		t.Errorf("ReadFile makes %.0f allocations, %.3f per concept; budget %.2f", allocs, perConcept, budget)
	}
}
