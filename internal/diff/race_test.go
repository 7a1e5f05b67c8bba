//go:build race

package diff

// The race detector's instrumentation allocates on its own, so
// allocation counts are only checked without it.
func init() { raceEnabled = true }
