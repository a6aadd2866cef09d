//go:build race

package simmeasure

// Under the race detector sync.Pool drops a random share of the items put
// back, so pooled scratch allocates and allocation counts of pooled code
// are not meaningful.
func init() { raceEnabled = true }
