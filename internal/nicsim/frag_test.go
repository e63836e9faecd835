package nicsim

import (
	"testing"
	"testing/quick"
)

func TestFragmentsExact(t *testing.T) {
	frags := Fragments(10, 4)
	want := []Fragment{
		{Offset: 0, Size: 4, Index: 0},
		{Offset: 4, Size: 4, Index: 1},
		{Offset: 8, Size: 2, Index: 2, Last: true},
	}
	if len(frags) != len(want) {
		t.Fatalf("got %d fragments", len(frags))
	}
	for i := range want {
		if frags[i] != want[i] {
			t.Errorf("frag %d = %+v, want %+v", i, frags[i], want[i])
		}
	}
}

func TestFragmentsZeroLengthMessage(t *testing.T) {
	frags := Fragments(0, 1500)
	if len(frags) != 1 || !frags[0].Last || frags[0].Size != 0 {
		t.Fatalf("zero-length: %+v", frags)
	}
	if NumFragments(0, 1500) != 1 {
		t.Fatal("NumFragments(0) != 1")
	}
}

func TestFragmentsSingle(t *testing.T) {
	frags := Fragments(1500, 1500)
	if len(frags) != 1 || !frags[0].Last || frags[0].Size != 1500 {
		t.Fatalf("exact-MTU: %+v", frags)
	}
}

// AppendFragments extends dst with exactly what Fragments returns, and a
// caller that reuses its slice splits later messages without allocating.
func TestAppendFragmentsReusesSlice(t *testing.T) {
	buf := AppendFragments(nil, 10000, 1500)
	for _, c := range []struct{ n, mtu int }{{10, 4}, {0, 1500}, {1500, 1500}, {9000, 4096}} {
		buf = AppendFragments(buf[:0], c.n, c.mtu)
		want := Fragments(c.n, c.mtu)
		if len(buf) != len(want) {
			t.Fatalf("n=%d mtu=%d: %d fragments, want %d", c.n, c.mtu, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Errorf("n=%d mtu=%d: frag %d = %+v, want %+v", c.n, c.mtu, i, buf[i], want[i])
			}
		}
	}
	prefix := []Fragment{{Offset: 99}}
	if got := AppendFragments(prefix, 3, 2); len(got) != 3 || got[0] != prefix[0] || !got[2].Last {
		t.Errorf("append after a prefix: %+v", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = AppendFragments(buf[:0], 9000, 1500) }); allocs != 0 {
		t.Errorf("reused slice: %v allocs per split, want 0", allocs)
	}
}

func TestFragmentsPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Fragments(-1, 10) },
		func() { Fragments(10, 0) },
		func() { NumFragments(10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: fragments tile the message exactly, in order, sizes within
// MTU, and NumFragments agrees.
func TestFragmentsTileMessage(t *testing.T) {
	f := func(n uint16, mtu uint16) bool {
		size := int(n)
		m := int(mtu%4096) + 1
		frags := Fragments(size, m)
		if len(frags) != NumFragments(size, m) {
			return false
		}
		off := 0
		for i, fr := range frags {
			if fr.Index != i || fr.Offset != off || fr.Size < 0 || fr.Size > m {
				return false
			}
			if fr.Last != (i == len(frags)-1) {
				return false
			}
			off += fr.Size
		}
		if size == 0 {
			return off == 0
		}
		// All but the last fragment are full.
		for _, fr := range frags[:len(frags)-1] {
			if fr.Size != m {
				return false
			}
		}
		return off == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReassemblerHappyPath(t *testing.T) {
	var r Reassembler
	frags := Fragments(10000, 4096)
	for i, f := range frags {
		done, ok := r.Accept(1, f, 10000)
		if !ok {
			t.Fatalf("fragment %d rejected", i)
		}
		if done != f.Last {
			t.Fatalf("fragment %d done=%v", i, done)
		}
	}
	if r.Active() {
		t.Fatal("still active after completion")
	}
}

func TestReassemblerMidGapDiscardsMessage(t *testing.T) {
	var r Reassembler
	frags := Fragments(10000, 4096) // 3 fragments
	r.Accept(1, frags[0], 10000)
	// frags[1] lost.
	done, ok := r.Accept(1, frags[2], 10000)
	if done || ok {
		t.Fatal("gapped message completed")
	}
	if r.Abandoned != 1 {
		t.Fatalf("abandoned = %d", r.Abandoned)
	}
	// Next message proceeds cleanly.
	done, ok = r.Accept(2, Fragments(100, 4096)[0], 100)
	if !done || !ok {
		t.Fatal("next message blocked by previous gap")
	}
}

func TestReassemblerLostTailAbandonedOnNextMessage(t *testing.T) {
	var r Reassembler
	frags := Fragments(10000, 4096)
	r.Accept(1, frags[0], 10000)
	r.Accept(1, frags[1], 10000)
	// frags[2] (the tail) lost; message 2 begins.
	done, ok := r.Accept(2, Fragments(50, 4096)[0], 50)
	if !done || !ok {
		t.Fatal("new message not accepted after lost tail")
	}
	if r.Abandoned != 1 {
		t.Fatalf("abandoned = %d", r.Abandoned)
	}
}

func TestReassemblerLostHeadDiscardsRest(t *testing.T) {
	var r Reassembler
	frags := Fragments(10000, 4096)
	// Head lost; middle and tail arrive.
	if done, ok := r.Accept(1, frags[1], 10000); done || ok {
		t.Fatal("accepted headless fragment")
	}
	if done, ok := r.Accept(1, frags[2], 10000); done || ok {
		t.Fatal("completed headless message")
	}
	if r.Abandoned != 1 {
		t.Fatalf("abandoned = %d", r.Abandoned)
	}
	if r.Active() {
		t.Fatal("active after abandoned tail")
	}
}

func TestReassemblerAbort(t *testing.T) {
	var r Reassembler
	frags := Fragments(10000, 4096)
	r.Accept(1, frags[0], 10000)
	r.Abort()
	if r.Active() || r.Received() != 0 {
		t.Fatal("abort incomplete")
	}
}
