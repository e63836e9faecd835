package runner

import (
	"testing"

	"vibe/internal/core"
)

// BenchmarkRegistryFull runs every registered experiment with full sweeps
// on one worker. `make profile` CPU-profiles a single pass of it.
func BenchmarkRegistryFull(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := FirstError(Run(core.Experiments(), Options{Workers: 1})); err != nil {
			b.Fatal(err)
		}
	}
}
