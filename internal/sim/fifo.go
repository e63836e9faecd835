package sim

// FIFO is a first-in first-out slice queue that reuses its backing array.
// Items live in buf[head:]. Draining the queue rewinds head to the front,
// so traffic that keeps emptying the queue allocates nothing once the
// array has grown to its working depth. A queue that never drains compacts
// its live items to the front when the array is full and at least half of
// it has been popped, which bounds storage by about twice the deepest the
// queue has been.
//
// It is the storage behind Queue, Signal's waiter list and Resource's
// acquire queue, and behind the VIA work queues, completion queues and
// retransmission windows. The zero value is an empty FIFO.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len reports the number of queued items.
func (f *FIFO[T]) Len() int { return len(f.buf) - f.head }

// Push appends v.
func (f *FIFO[T]) Push(v T) {
	if f.head > 0 && len(f.buf) == cap(f.buf) && 2*f.head >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, v)
}

// Pop removes and returns the oldest item; the FIFO must not be empty. The
// vacated slot is zeroed, so the FIFO keeps no reference to the item.
func (f *FIFO[T]) Pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	f.rewind()
	return v
}

// Items returns the queued items, oldest first. The slice aliases the
// FIFO's storage: writes through it change the queued items, and it is
// valid only until the next call that adds or removes items.
func (f *FIFO[T]) Items() []T { return f.buf[f.head:] }

// Drop removes the k oldest items and returns them, oldest first. Their
// slots are left as they are, so the returned slice stays valid until the
// next Push.
func (f *FIFO[T]) Drop(k int) []T {
	s := f.buf[f.head : f.head+k : f.head+k]
	f.head += k
	f.rewind()
	return s
}

// Remove deletes the item at position i (0 is the oldest), keeping the
// order of the others.
func (f *FIFO[T]) Remove(i int) {
	i += f.head
	copy(f.buf[i:], f.buf[i+1:])
	var zero T
	f.buf[len(f.buf)-1] = zero
	f.buf = f.buf[:len(f.buf)-1]
	f.rewind()
}

// Clear empties the FIFO, dropping its references to the items but
// keeping the storage.
func (f *FIFO[T]) Clear() {
	clear(f.buf)
	f.buf = f.buf[:0]
	f.head = 0
}

func (f *FIFO[T]) rewind() {
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
}
