package core

import (
	"runtime"
	"testing"

	"vibe/internal/provider"
	"vibe/internal/via"
)

// roundTripAllocs reports the steady-state heap allocations per 4-byte
// round trip: the mallocs of a run of 3n round trips minus those of a run
// of n, divided by 2n. Building the system, the pools and the connection
// costs the same in both runs and cancels out; what is left is the
// per-message path from post to completion. The smaller of two
// measurements is kept, so a stray runtime allocation during one run
// cannot fail the gate.
func roundTripAllocs(t *testing.T, cfg Config, o XferOpts, n int) float64 {
	t.Helper()
	mallocs := func(iters int) uint64 {
		c := cfg
		c.Warmup, c.Iters = n, iters
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := roundTrip(c, 4, 4, false, o); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	best := -1.0
	for rep := 0; rep < 2; rep++ {
		short, long := mallocs(n), mallocs(3*n)
		per := (float64(long) - float64(short)) / float64(2*n)
		if best < 0 || per < best {
			best = per
		}
	}
	return best
}

// TestRoundTripAllocs gates the allocation-free message path: a
// steady-state CLAN round trip at the unreliable level allocates nothing,
// whether completions are polled, blocked on, taken through a completion
// queue, or carried by RDMA writes, under both process models. The
// reliable levels may allocate only the data-packet headers: a sequenced
// packet stays in the sender's retransmission window until acked and may
// be resent as the same object, so the receiver never recycles it and
// each round trip's two data packets are fresh (with acks and unreliable
// packets recycled, that is the whole residual).
func TestRoundTripAllocs(t *testing.T) {
	cases := []struct {
		name  string
		o     XferOpts
		limit float64
	}{
		{"poll", XferOpts{}, 0},
		{"block", XferOpts{Mode: Blocking}, 0},
		{"cq", XferOpts{RecvViaCQ: true}, 0},
		{"cq-block", XferOpts{RecvViaCQ: true, Mode: Blocking}, 0},
		{"rdma-write", XferOpts{RDMA: true}, 0},
		{"reliable-delivery", XferOpts{Reliability: via.ReliableDelivery}, 2.1},
		{"reliable-reception", XferOpts{Reliability: via.ReliableReception}, 2.1},
	}
	// Slack for runtime noise (a background allocation in one run of a
	// pair); a real per-message allocation costs at least 1 per round
	// trip.
	const slack = 0.05
	const n = 200
	models := []struct {
		name string
		pm   via.ProcModel
	}{{"actor", via.ModelActor}, {"goroutine", via.ModelGoroutine}}
	for _, m := range models {
		for _, tc := range cases {
			pm := m.pm
			t.Run(tc.name+"/"+m.name, func(t *testing.T) {
				cfg := DefaultConfig(provider.CLAN())
				cfg.ProcModel = pm
				got := roundTripAllocs(t, cfg, tc.o, n)
				t.Logf("%.3f allocs per round trip", got)
				if got > tc.limit+slack {
					t.Errorf("%.3f allocs per steady-state round trip, want <= %v", got, tc.limit)
				}
			})
		}
	}
}
