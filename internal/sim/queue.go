package sim

// Queue is an unbounded typed FIFO connecting simulated processes. Pushes
// never block; Pop blocks the caller until an item is available. It is the
// workhorse for modeling hardware queues (doorbells, NIC receive rings).
//
// Storage is a FIFO that rewinds when drained, so steady-state traffic
// reuses the same backing array. Together with the type parameter (no
// interface{} boxing) a warm push/pop cycle does not allocate.
type Queue[T any] struct {
	eng   *Engine
	items FIFO[T]
	avail *Signal
	svc   *service[T]
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{eng: e, avail: NewSignal(e)}
}

// Push appends v and wakes the consumer if it is idle: the serving
// machine's pump event when one is bound (see Serve), otherwise one
// process waiting in Pop. It may be called from a process or from a raw
// engine event (e.g. a packet-delivery callback).
func (q *Queue[T]) Push(v T) {
	q.items.Push(v)
	if q.svc != nil {
		q.svc.notify()
		return
	}
	q.avail.Signal()
}

// Pop removes and returns the oldest item, parking the caller until one is
// available.
func (q *Queue[T]) Pop(p *Proc) T {
	for q.Len() == 0 {
		q.avail.Wait(p)
	}
	return q.items.Pop()
}

// PopTimeout is Pop with a deadline; ok reports whether an item arrived in
// time.
func (q *Queue[T]) PopTimeout(p *Proc, d Duration) (v T, ok bool) {
	deadline := q.eng.now.Add(d)
	for q.Len() == 0 {
		remaining := deadline.Sub(q.eng.now)
		if remaining <= 0 {
			return v, false
		}
		if !q.avail.WaitTimeout(p, remaining) {
			return v, false
		}
	}
	return q.items.Pop(), true
}

// TryPop removes and returns the oldest item without blocking.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	if q.Len() == 0 {
		return v, false
	}
	return q.items.Pop(), true
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.items.Len() }
