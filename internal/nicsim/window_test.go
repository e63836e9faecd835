package nicsim

import (
	"testing"
	"testing/quick"

	"vibe/internal/sim"
)

func TestWindowAddAck(t *testing.T) {
	var w Window
	a := w.Add("a", 10)
	b := w.Add("b", 20)
	c := w.Add("c", 30)
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("seqs: %d %d %d", a, b, c)
	}
	if w.Outstanding() != 3 || w.NextSeq() != 3 {
		t.Fatalf("outstanding=%d next=%d", w.Outstanding(), w.NextSeq())
	}
	acked := w.Ack(1)
	if len(acked) != 2 || acked[0].Item.(string) != "a" || acked[1].Item.(string) != "b" {
		t.Fatalf("acked = %v", acked)
	}
	if w.Outstanding() != 1 || w.Oldest().Seq != 2 {
		t.Fatalf("after ack: outstanding=%d oldest=%v", w.Outstanding(), w.Oldest())
	}
	if w.Acked != 2 {
		t.Fatalf("Acked = %d", w.Acked)
	}
}

func TestWindowAckIdempotent(t *testing.T) {
	var w Window
	w.Add("a", 0)
	if got := w.Ack(0); len(got) != 1 {
		t.Fatal("first ack")
	}
	if got := w.Ack(0); len(got) != 0 {
		t.Fatal("duplicate ack removed something")
	}
	if w.Oldest() != nil {
		t.Fatal("Oldest on empty window")
	}
}

func TestWindowMarkResent(t *testing.T) {
	var w Window
	w.Add("a", 5)
	w.Add("b", 6)
	max := w.MarkResent(sim.Time(100))
	if max != 1 || w.Retransmits != 2 {
		t.Fatalf("max=%d retransmits=%d", max, w.Retransmits)
	}
	for _, p := range w.Unacked() {
		if p.SentAt != 100 || p.Retries != 1 {
			t.Fatalf("pending not restamped: %+v", p)
		}
	}
	if w.MarkResent(sim.Time(200)) != 2 {
		t.Fatal("second resend max retries")
	}
	w.Reset()
	if w.Outstanding() != 0 {
		t.Fatal("Reset")
	}
	if w.String() == "" {
		t.Fatal("String")
	}
}

func TestRecvSeqInOrder(t *testing.T) {
	var r RecvSeq
	if _, ok := r.CumAck(); ok {
		t.Fatal("CumAck before any packet")
	}
	for seq := uint64(0); seq < 4; seq++ {
		accept, dup := r.Accept(seq)
		if !accept || dup {
			t.Fatalf("seq %d: accept=%v dup=%v", seq, accept, dup)
		}
	}
	if ack, ok := r.CumAck(); !ok || ack != 3 {
		t.Fatalf("CumAck = %d,%v", ack, ok)
	}
}

func TestRecvSeqDuplicateAndGap(t *testing.T) {
	var r RecvSeq
	r.Accept(0)
	if accept, dup := r.Accept(0); accept || !dup {
		t.Fatalf("duplicate: accept=%v dup=%v", accept, dup)
	}
	if accept, dup := r.Accept(5); accept || dup {
		t.Fatalf("gap: accept=%v dup=%v", accept, dup)
	}
	if r.Duplicates != 1 || r.Gaps != 1 || r.Expected() != 1 {
		t.Fatalf("dups=%d gaps=%d expected=%d", r.Duplicates, r.Gaps, r.Expected())
	}
}

// Property: after any interleaving of sends and cumulative acks, the
// window holds exactly the sequence numbers greater than the highest ack.
func TestWindowInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		var w Window
		highAck := -1
		for _, op := range ops {
			if op%2 == 0 {
				w.Add(int(op), 0)
			} else if w.NextSeq() > 0 {
				ack := uint64(op) % w.NextSeq()
				w.Ack(ack)
				if int(ack) > highAck {
					highAck = int(ack)
				}
			}
		}
		want := int(w.NextSeq()) - (highAck + 1)
		if want < 0 {
			want = 0
		}
		if w.Outstanding() != want {
			return false
		}
		// Pending entries are in strictly increasing seq order, all above
		// highAck.
		prev := -1
		for _, p := range w.Unacked() {
			if int(p.Seq) <= highAck || int(p.Seq) <= prev {
				return false
			}
			prev = int(p.Seq)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a receiver fed any sequence stream accepts exactly the strictly
// consecutive prefix-extension packets.
func TestRecvSeqProperty(t *testing.T) {
	f := func(seqs []uint8) bool {
		var r RecvSeq
		expected := uint64(0)
		for _, s := range seqs {
			seq := uint64(s % 8)
			accept, dup := r.Accept(seq)
			switch {
			case seq == expected:
				if !accept || dup {
					return false
				}
				expected++
			case seq < expected:
				if accept || !dup {
					return false
				}
			default:
				if accept || dup {
					return false
				}
			}
		}
		return r.Expected() == expected
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestUnackedReturnsCopy pins the aliasing fix: Unacked used to return the
// window's internal slice, whose backing array Ack re-slices in place —
// mutating the returned slice (or just holding it across an Ack) corrupted
// go-back-N state. The returned slice must be detached.
func TestUnackedReturnsCopy(t *testing.T) {
	var w Window
	for i := 0; i < 4; i++ {
		w.Add(i, sim.Time(i))
	}
	snap := w.Unacked()

	// Clobbering the snapshot must not reach the window.
	snap[0] = Pending{}
	snap[1] = Pending{Seq: 999}
	if old := w.Oldest(); old == nil || old.Seq != 0 {
		t.Fatalf("oldest corrupted by writing through Unacked: %v", old)
	}

	// Ack shrinks the window by re-slicing; the snapshot keeps the old
	// contents rather than seeing acked entries mutate under it.
	snap = w.Unacked()
	w.Ack(1)
	if len(snap) != 4 || snap[0].Seq != 0 || snap[3].Seq != 3 {
		t.Fatalf("snapshot changed by Ack: %v", snap)
	}
	if w.Outstanding() != 2 || w.Oldest().Seq != 2 {
		t.Fatalf("window wrong after Ack: %v", w.Unacked())
	}

	// After go-back-N resend bookkeeping through ForEachUnacked, the
	// window still holds exactly the unacked tail, in order.
	var seen []uint64
	w.ForEachUnacked(func(p *Pending) bool {
		seen = append(seen, p.Seq)
		return true
	})
	if len(seen) != 2 || seen[0] != 2 || seen[1] != 3 {
		t.Fatalf("ForEachUnacked order = %v, want [2 3]", seen)
	}
}

// TestForEachUnackedEarlyExit: returning false stops iteration (the paced
// retransmission burst relies on this).
func TestForEachUnackedEarlyExit(t *testing.T) {
	var w Window
	for i := 0; i < 5; i++ {
		w.Add(i, 0)
	}
	calls := 0
	w.ForEachUnacked(func(p *Pending) bool {
		calls++
		return calls < 2
	})
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

// TestWindowAckValidUntilAdd pins the storage contract: the records Ack
// returns alias the window's ring, so they must stay intact until the
// next Add, even when the Ack drains the window and rewinds the ring.
func TestWindowAckValidUntilAdd(t *testing.T) {
	var w Window
	for i := 0; i < 3; i++ {
		w.Add(i, sim.Time(10*i))
	}
	acked := w.Ack(2) // drains: the ring rewinds underneath acked
	if w.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after a full ack", w.Outstanding())
	}
	for i, p := range acked {
		if p.Seq != uint64(i) || p.Item.(int) != i || p.SentAt != sim.Time(10*i) {
			t.Fatalf("acked[%d] = %+v", i, p)
		}
	}
	if w.Add("next", 99) != 3 {
		t.Fatal("sequence numbers must keep counting across a rewind")
	}
	if o := w.Oldest(); o == nil || o.Seq != 3 || o.Item.(string) != "next" {
		t.Fatalf("oldest after rewind = %+v", o)
	}
}

// TestWindowAddAckAllocs: a warm Add/Ack cycle allocates nothing, both
// for a window that drains every time and for one that never drains.
func TestWindowAddAckAllocs(t *testing.T) {
	var item int
	for _, inFlight := range []int{0, 16} {
		var w Window
		for i := 0; i < inFlight; i++ {
			w.Add(&item, 0)
		}
		got := testing.AllocsPerRun(1000, func() {
			seq := w.Add(&item, 1)
			w.Ack(seq - uint64(inFlight))
		})
		if got != 0 {
			t.Errorf("in flight %d: %v allocs per Add/Ack, want 0", inFlight, got)
		}
		if w.Outstanding() != inFlight {
			t.Errorf("in flight %d: window holds %d", inFlight, w.Outstanding())
		}
	}
}

// TestWindowNeverDrainingIsBounded: a window that always keeps packets in
// flight never rewinds, so its ring must compact instead of growing. One
// measured pass of 100k sends after an equal warm-up pass would have to
// reallocate at least once if storage grew with the sequence number.
func TestWindowNeverDrainingIsBounded(t *testing.T) {
	var w Window
	const inFlight = 5
	for i := 0; i < inFlight; i++ {
		w.Add(nil, 0)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100000; i++ {
			seq := w.Add(nil, 0)
			w.Ack(seq - inFlight)
		}
	})
	if allocs != 0 {
		t.Fatalf("never-draining window allocated %v times in 100k sends", allocs)
	}
	if w.Outstanding() != inFlight || w.Oldest().Seq != w.NextSeq()-inFlight {
		t.Fatalf("window state: outstanding=%d oldest=%+v next=%d", w.Outstanding(), w.Oldest(), w.NextSeq())
	}
}

// BenchmarkWindowAddAck is one send and one cumulative ack against a
// standing window of 16 packets in flight: the reliable-mode sender's
// bookkeeping per data packet.
func BenchmarkWindowAddAck(b *testing.B) {
	var w Window
	var item int
	const inFlight = 16
	for i := 0; i < inFlight; i++ {
		w.Add(&item, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := w.Add(&item, sim.Time(i))
		w.Ack(seq - inFlight)
	}
}
