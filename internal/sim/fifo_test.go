package sim

import "testing"

func TestFIFOOrderAndRewind(t *testing.T) {
	var f FIFO[int]
	for i := 0; i < 4; i++ {
		f.Push(i)
	}
	if f.Pop() != 0 || f.Len() != 3 {
		t.Fatalf("pop/len: %v", f.Items())
	}
	f.Remove(1) // drops 2
	if got := f.Items(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("after Remove(1): %v", got)
	}
	dropped := f.Drop(2)
	if f.Len() != 0 || f.head != 0 || len(f.buf) != 0 {
		t.Fatalf("drained FIFO did not rewind: head=%d len=%d", f.head, len(f.buf))
	}
	if len(dropped) != 2 || dropped[0] != 1 || dropped[1] != 3 {
		t.Fatalf("Drop returned %v", dropped)
	}
	f.Push(9)
	f.Clear()
	if f.Len() != 0 {
		t.Fatal("Clear")
	}
}

// TestFIFONeverDrainingIsBounded: a FIFO that always holds a few items
// never rewinds; it must compact rather than grow with the number of
// items ever pushed.
func TestFIFONeverDrainingIsBounded(t *testing.T) {
	var f FIFO[int]
	const depth = 7
	for i := 0; i < depth; i++ {
		f.Push(i)
	}
	for i := depth; i < 100000; i++ {
		f.Push(i)
		if got := f.Pop(); got != i-depth {
			t.Fatalf("pop %d, want %d", got, i-depth)
		}
	}
	if c := cap(f.buf); c > 4*(depth+1) {
		t.Fatalf("storage grew to %d slots for a depth of %d", c, depth)
	}
}
