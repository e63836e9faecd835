package sim

// event is a scheduled engine action. Events fire in (at, seq) order so
// that two events scheduled for the same instant run in schedule order.
//
// Exactly one behaviour applies, discriminated without interface boxing:
//
//   - begin != nil: start process p (its goroutine is launched lazily at
//     dispatch, and control transfers to it)
//   - p != nil:     resume process p (a wake scheduled by Sleep or by a
//     Signal/Queue/Resource waker)
//   - otherwise:    run the plain callback fn
//
// Wake and start events carry the target process directly instead of a
// closure, which removes the per-yield allocation the old
// `After(0, p.wake)` pattern paid on every blocking primitive.
//
// Handler events (svc != nil) call svc.Handle(pc). They are the
// state-machine analogue of a wake — they resume a queue-bound Machine at
// state pc without any goroutine handoff (see actor.go) — and they carry
// wait deadlines and the VIA engines' timers. Like wakes, they are
// closure-free.
//
// The struct is copied on every heap sift, so it must not grow: a new
// kind of event should ride on svc/pc rather than add a field.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	p     *Proc
	begin func(*Proc)
	svc   Handler
	pc    int

	// tm, when non-nil, makes the event cancellable: the heap keeps tm.i
	// pointing at the event's current slot so cancelTimer can remove it
	// outright (see Engine.atTimer). Removal beats tombstoning here
	// because abandoned timeouts otherwise pile up for their full
	// duration and deepen every sift in the meantime.
	tm *timer
}

// eventQueue is a 4-ary min-heap of events ordered by (at, seq). Events are
// stored by value: scheduling never heap-allocates, and dispatch order is
// identical to any other stable priority queue over the same keys because
// (at, seq) is a total order. The wider node fan-out halves the tree depth
// of the old binary container/heap and removes its interface{} boxing.
type eventQueue struct {
	a []event
	// hw is the deepest the queue has ever been — the simulation's event
	// backlog high-water mark, surfaced through the metrics layer.
	hw int
}

func evBefore(x, y *event) bool {
	return x.at < y.at || (x.at == y.at && x.seq < y.seq)
}

func (q *eventQueue) len() int { return len(q.a) }

// push inserts ev, sifting parents down rather than swapping so each level
// costs one copy instead of three.
func (q *eventQueue) push(ev event) {
	a := append(q.a, ev)
	if len(a) > q.hw {
		q.hw = len(a)
	}
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !evBefore(&ev, &a[parent]) {
			break
		}
		a[i] = a[parent]
		if t := a[i].tm; t != nil {
			t.i = i
		}
		i = parent
	}
	a[i] = ev
	if t := ev.tm; t != nil {
		t.i = i
	}
	q.a = a
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() event {
	a := q.a
	top := a[0]
	n := len(a) - 1
	last := a[n]
	a[n] = event{} // drop closure/proc references for the GC
	a = a[:n]
	q.a = a
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if evBefore(&a[j], &a[m]) {
					m = j
				}
			}
			if !evBefore(&a[m], &last) {
				break
			}
			a[i] = a[m]
			if t := a[i].tm; t != nil {
				t.i = i
			}
			i = m
		}
		a[i] = last
		if t := last.tm; t != nil {
			t.i = i
		}
	}
	return top
}

// removeAt deletes the event at heap index i, restoring the heap
// property. Dispatch order of the remaining events is untouched: pops
// select the (at, seq) minimum, which the internal layout cannot change.
func (q *eventQueue) removeAt(i int) {
	a := q.a
	n := len(a) - 1
	last := a[n]
	a[n] = event{}
	q.a = a[:n]
	a = q.a
	if i == n {
		return
	}
	// Re-seat `last` at the vacated slot: sift up if it beats the
	// parent, otherwise sift down.
	for i > 0 {
		parent := (i - 1) >> 2
		if !evBefore(&last, &a[parent]) {
			break
		}
		a[i] = a[parent]
		if t := a[i].tm; t != nil {
			t.i = i
		}
		i = parent
	}
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if evBefore(&a[j], &a[m]) {
				m = j
			}
		}
		if !evBefore(&a[m], &last) {
			break
		}
		a[i] = a[m]
		if t := a[i].tm; t != nil {
			t.i = i
		}
		i = m
	}
	a[i] = last
	if t := last.tm; t != nil {
		t.i = i
	}
}
