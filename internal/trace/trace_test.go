package trace

import (
	"io"
	"strings"
	"testing"

	"vibe/internal/sim"
)

var (
	testTick = sim.NewTraceName("tick %")
	testSend = sim.NewTraceName("send %B ok")
)

// tick is an instant event on nic0 whose name is "tick <n>".
func tick(at sim.Time, n int64) sim.TraceEvent {
	return sim.TraceEvent{At: at, Comp: sim.TraceNIC, Name: testTick, Args: [6]int64{n}}
}

func dump(r *Recorder) string {
	var b strings.Builder
	r.Dump(&b)
	return b.String()
}

func TestRecorderBasics(t *testing.T) {
	var r Recorder
	r.Trace(tick(10, 1))
	r.Trace(sim.TraceEvent{At: 20, Dur: 5, Comp: sim.TraceSpan, ID: 2, Name: testSend, Args: [6]int64{64}})
	if r.Len() != 2 || r.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	want := "        10ns  nic0: tick 1\n        20ns  span2: send 64B ok\n"
	if got := dump(&r); got != want {
		t.Fatalf("dump = %q, want %q", got, want)
	}
}

func TestRecorderLimit(t *testing.T) {
	r := Recorder{Limit: 2}
	for i := int64(1); i <= 3; i++ {
		r.Trace(tick(sim.Time(i), i))
	}
	if r.Len() != 2 || r.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	if got := dump(&r); !strings.Contains(got, "tick 2\n") || !strings.Contains(got, "tick 3\n") || strings.Contains(got, "tick 1\n") {
		t.Fatalf("wrong survivors: %q", got)
	}
}

// TestRecorderDump checks the text rendering: one line per event, then a
// note of how many earlier events a full ring dropped.
func TestRecorderDump(t *testing.T) {
	var r Recorder
	for i := int64(1); i <= 3; i++ {
		r.Trace(tick(sim.Time(i)*sim.Time(sim.Microsecond), i))
	}
	if got := dump(&r); strings.Count(got, "\n") != 3 || !strings.Contains(got, "     3.000us  nic0: tick 3\n") {
		t.Fatalf("dump = %q", got)
	}
	r2 := Recorder{Limit: 1}
	r2.Trace(tick(1, 1))
	r2.Trace(tick(2, 2))
	if got := dump(&r2); !strings.HasSuffix(got, "(1 earlier entries dropped)\n") {
		t.Fatalf("dump does not report drops: %q", got)
	}
}

// TestRecorderRingOrder exercises wraparound across storage chunks: after
// many events through a ring that does not fill its last chunk, the
// survivors still come out oldest first, with the drop count right.
func TestRecorderRingOrder(t *testing.T) {
	const limit, total = chunkLen + 3, 3*chunkLen + 5
	r := Recorder{Limit: limit}
	for i := int64(0); i < total; i++ {
		r.Trace(tick(sim.Time(i), i))
	}
	if r.Len() != limit || r.Dropped() != total-limit {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	for k := 0; k < limit; k++ {
		if ev := r.at(k).ev; ev.At != sim.Time(total-limit+k) || ev.Args[0] != int64(total-limit+k) {
			t.Fatalf("entry %d = %+v, want event %d", k, ev, total-limit+k)
		}
	}
}

func TestRecorderWithEngine(t *testing.T) {
	e := sim.NewEngine(1)
	var r Recorder
	e.SetTracer(&r)
	e.At(5, func() { e.Trace(tick(e.Now(), 1)) })
	e.MustRun()
	if got := dump(&r); got != "         5ns  nic0: tick 1\n" {
		t.Fatalf("engine trace = %q", got)
	}
}

// TestRecordAndExportAllocs pins the allocation contract: recording into
// a full ring allocates nothing, and WriteChrome's allocations do not grow
// with the number of events.
func TestRecordAndExportAllocs(t *testing.T) {
	r := Recorder{Limit: 64}
	sys := r.ForSystem()
	if n := testing.AllocsPerRun(1000, func() { sys.Trace(tick(1, 1)) }); n != 0 {
		t.Fatalf("recording allocated %.1f per event", n)
	}
	export := func(events int) float64 {
		r := Recorder{Limit: events}
		sys := r.ForSystem()
		for i := 0; i < events; i++ {
			ev := tick(sim.Time(i), int64(i))
			ev.ID = int32(i % 4)
			sys.Trace(ev)
		}
		return testing.AllocsPerRun(5, func() {
			if err := r.WriteChrome(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := export(16), export(4*chunkLen); large != small {
		t.Fatalf("WriteChrome allocations grow with events: %.0f for 16, %.0f for %d", small, large, 4*chunkLen)
	}
}
