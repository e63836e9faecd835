package sim

// waiter is one process parked on a Signal. A process waits on at most one
// Signal at a time, so every Proc embeds its own waiter and reuses it for
// each wait: waiting allocates nothing. The woken/timedOut flags guarantee
// exactly one wake per wait even when a broadcast and a timeout land on
// the same instant.
type waiter struct {
	p        *Proc
	sig      *Signal // the signal of the current wait
	woken    bool
	timedOut bool
	tm       timer // heap slot of the timeout event, for cancellation
}

// Handle is the deadline of a WaitTimeout: the waiter is its own
// closure-free timer event.
func (w *waiter) Handle(int) {
	if w.woken {
		// A same-instant Signal dispatched first (it marked w woken and
		// scheduled the wake); the deadline loses the tie.
		return
	}
	w.woken = true
	w.timedOut = true
	w.sig.remove(w)
	w.p.scheduleWake()
}

// Signal is a broadcast/wake-one condition. Waiters park until another
// process (or an engine event) signals. Signals carry no data; pair them
// with shared state guarded by the run-to-block execution model (no locks
// are needed: only one process runs at a time).
type Signal struct {
	eng     *Engine
	waiters FIFO[*waiter]
}

// NewSignal returns a Signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// enqueue arms p's waiter for a wait on s.
func (s *Signal) enqueue(p *Proc) *waiter {
	w := &p.w
	w.sig = s
	w.woken = false
	w.timedOut = false
	s.waiters.Push(w)
	return w
}

// Wait parks the calling process until the next Signal or Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.enqueue(p)
	p.parkBlocked()
}

// WaitTimeout parks the calling process until the next Signal/Broadcast or
// until d elapses. It reports false if the wait timed out. A wait that is
// signalled in time cancels its deadline event outright, so abandoned
// timeouts never accumulate in the heap (a simulation full of generous
// deadlines — every blocking VIPL call arms one — would otherwise carry
// thousands of dead events and run on to the last deadline).
func (s *Signal) WaitTimeout(p *Proc, d Duration) bool {
	w := s.enqueue(p)
	p.eng.atTimer(p.eng.now.Add(d), w, 0, &w.tm)
	p.parkBlocked()
	if !w.timedOut {
		p.eng.cancelTimer(&w.tm)
	}
	return !w.timedOut
}

func (s *Signal) remove(w *waiter) {
	for i, x := range s.waiters.Items() {
		if x == w {
			s.waiters.Remove(i)
			return
		}
	}
}

// Signal wakes the longest-waiting process, if any. It reports whether a
// process was woken.
func (s *Signal) Signal() bool {
	for s.waiters.Len() > 0 {
		w := s.waiters.Pop()
		if w.woken {
			continue
		}
		w.woken = true
		w.p.scheduleWake()
		return true
	}
	return false
}

// Broadcast wakes every waiting process in FIFO order.
func (s *Signal) Broadcast() {
	for _, w := range s.waiters.Items() {
		if w.woken {
			continue
		}
		w.woken = true
		w.p.scheduleWake()
	}
	s.waiters.Clear()
}

// Waiters reports the number of parked processes.
func (s *Signal) Waiters() int { return s.waiters.Len() }
