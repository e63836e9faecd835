package sim

import "testing"

// TestWaiterReuseAcrossWaits drives one process through every kind of wait
// in a row on two signals — its single embedded waiter is rearmed each
// time — and checks each wait ends when and how it should, with no stale
// waiter left behind on either signal.
func TestWaiterReuseAcrossWaits(t *testing.T) {
	e := NewEngine(1)
	a, b := NewSignal(e), NewSignal(e)
	type step struct {
		at Time
		ok bool
	}
	var got []step
	e.Spawn("waiter", func(p *Proc) {
		a.Wait(p) // signalled at 10
		got = append(got, step{p.Now(), true})
		ok := b.WaitTimeout(p, 5) // nobody signals b before 15
		got = append(got, step{p.Now(), ok})
		ok = a.WaitTimeout(p, 100) // signalled at 20
		got = append(got, step{p.Now(), ok})
		b.Wait(p) // signalled at 30
		got = append(got, step{p.Now(), true})
	})
	e.Spawn("signaller", func(p *Proc) {
		p.Sleep(10)
		a.Signal()
		p.Sleep(10)
		if b.Signal() {
			t.Error("b.Signal at 20 woke the waiter whose wait on b timed out at 15")
		}
		a.Broadcast()
		p.Sleep(10)
		b.Signal()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []step{{10, true}, {15, false}, {20, true}, {30, true}}
	if len(got) != len(want) {
		t.Fatalf("waits = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("wait %d ended at %v ok=%v, want at %v ok=%v", i, got[i].at, got[i].ok, want[i].at, want[i].ok)
		}
	}
	if a.Waiters() != 0 || b.Waiters() != 0 {
		t.Errorf("stale waiters: a=%d b=%d", a.Waiters(), b.Waiters())
	}
	if err := e.CheckLeaks(); err != nil {
		t.Error(err)
	}
}

// TestSignalDeadlineTie: a Signal and a WaitTimeout deadline on the same
// instant resolve by event order, exactly one of them wins, and the
// loser leaves nothing behind — the reused waiter is immediately good for
// the next wait.
func TestSignalDeadlineTie(t *testing.T) {
	for _, signalFirst := range []bool{true, false} {
		e := NewEngine(1)
		s, next := NewSignal(e), NewSignal(e)
		var ok, signalled, woke bool
		arm := func() {
			e.At(10, func() { signalled = s.Signal() })
		}
		if signalFirst {
			arm() // the signal event precedes the deadline in (time, seq)
		}
		e.Spawn("waiter", func(p *Proc) {
			ok = s.WaitTimeout(p, 10)
			next.Wait(p)
			woke = true
		})
		if !signalFirst {
			e.Spawn("arm", func(*Proc) { arm() }) // scheduled after the deadline
		}
		e.At(20, func() { next.Signal() })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if ok != signalFirst || signalled != signalFirst {
			t.Errorf("signal first=%v: wait ok=%v, Signal woke=%v; want both %v", signalFirst, ok, signalled, signalFirst)
		}
		if !woke || s.Waiters() != 0 || next.Waiters() != 0 {
			t.Errorf("signal first=%v: follow-up wait woke=%v, waiters %d/%d", signalFirst, woke, s.Waiters(), next.Waiters())
		}
	}
}

// TestSignalCycleAllocs pins the allocation-free wait path: a warm cycle
// of Wait, Signal, WaitTimeout (signalled and timed out) and Broadcast
// allocates nothing.
func TestSignalCycleAllocs(t *testing.T) {
	e := NewEngine(1)
	kickA, kickB, x, y := NewSignal(e), NewSignal(e), NewSignal(e), NewSignal(e)
	var failures int
	e.Spawn("a", func(p *Proc) {
		p.SetDaemon(true)
		for {
			kickA.Wait(p)
			p.Sleep(1)
			x.Broadcast()
			if y.WaitTimeout(p, 1) {
				failures++ // nobody signals y
			}
		}
	})
	e.Spawn("b", func(p *Proc) {
		p.SetDaemon(true)
		for {
			kickB.Wait(p)
			if !x.WaitTimeout(p, 1000) {
				failures++ // a broadcasts x first
			}
		}
	})
	e.MustRun()
	allocs := testing.AllocsPerRun(200, func() {
		kickA.Signal()
		kickB.Signal()
		e.MustRun()
	})
	if allocs != 0 {
		t.Errorf("%v allocs per wait cycle, want 0", allocs)
	}
	if failures != 0 {
		t.Errorf("%d waits ended the wrong way", failures)
	}
}
