package sim

import "fmt"

// Proc is a simulated process: a goroutine whose execution is interleaved
// with all other processes by the engine, one at a time. Inside a process
// function, time passes only through the blocking primitives (Sleep, Wait,
// queue operations); ordinary Go code executes in zero virtual time.
type Proc struct {
	eng     *Engine
	name    string
	resume  chan struct{}
	dead    bool
	daemon  bool
	started bool // begin event dispatched: a goroutine is executing fn
	parked  bool // blocked with no wake event pending (see parkBlocked)
	killed  bool // Shutdown marked it for unwinding

	w waiter // reused by every Signal wait: a process waits on one at a time
}

// SetDaemon marks the process as a daemon: an engine loop that blocks
// forever waiting for work (a NIC engine, a server accept loop). Blocked
// daemons do not count toward deadlock detection, so Run can return once
// all non-daemon work is finished.
func (p *Proc) SetDaemon(on bool) { p.daemon = on }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

func newProc(e *Engine, name string) *Proc {
	// resume is buffered: at most one wake token is ever outstanding per
	// process (a process must yield before anything can wake it again), so
	// the waking goroutine never blocks on the handoff.
	p := &Proc{eng: e, name: name, resume: make(chan struct{}, 1)}
	p.w.p = p
	return p
}

// register adds p to the engine's process registry, compacting dead
// entries in place when the slice is about to grow so the registry stays
// proportional to the number of live processes.
func (e *Engine) register(p *Proc) {
	if len(e.procs) > 0 && len(e.procs) == cap(e.procs) {
		live := e.procs[:0]
		for _, q := range e.procs {
			if !q.dead {
				live = append(live, q)
			}
		}
		for i := len(live); i < len(e.procs); i++ {
			e.procs[i] = nil
		}
		e.procs = live
	}
	e.procs = append(e.procs, p)
}

// Spawn creates a process running fn and schedules it to start at the
// current virtual time. fn runs concurrently with the caller in virtual
// time but never in parallel in real time.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := newProc(e, name)
	e.live++
	e.register(p)
	e.atStart(e.now, p, fn)
	return p
}

// SpawnAfter is Spawn with the start delayed by d.
func (e *Engine) SpawnAfter(d Duration, name string, fn func(p *Proc)) *Proc {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	p := newProc(e, name)
	e.live++
	e.register(p)
	e.atStart(e.now.Add(d), p, fn)
	return p
}

// killSignal is the panic value yield raises when Shutdown unwinds a
// parked process; exec recognizes it and exits the goroutine quietly.
type killSignal struct{}

// worker is one pooled process goroutine. After its process function
// returns it parks on wake, ready to adopt the next spawned process
// without a fresh `go` statement.
type worker struct {
	eng    *Engine
	wake   chan struct{}
	p      *Proc
	fn     func(*Proc)
	killed bool
}

// startProc hands the begin event's process to a pooled worker goroutine,
// creating one on pool miss. Called from dispatch with control in hand;
// the worker takes over the engine immediately.
func (e *Engine) startProc(p *Proc, fn func(*Proc)) {
	if n := len(e.idleWorkers); n > 0 {
		w := e.idleWorkers[n-1]
		e.idleWorkers[n-1] = nil
		e.idleWorkers = e.idleWorkers[:n-1]
		w.p, w.fn = p, fn
		w.wake <- struct{}{}
		return
	}
	w := &worker{eng: e, wake: make(chan struct{}, 1), p: p, fn: fn}
	go w.loop()
}

// loop runs process bodies until the engine shuts the worker down.
func (w *worker) loop() {
	for {
		p, fn := w.p, w.fn
		w.p, w.fn = nil, nil
		if p.exec(fn) {
			w.eng.killAck <- struct{}{}
			return
		}
		// Park this goroutine for reuse BEFORE dispatching onward: after
		// the handoff another goroutine owns the engine and may pop the
		// idle-worker list to start the next spawn.
		w.eng.idleWorkers = append(w.eng.idleWorkers, w)
		w.eng.dispatch(nil, false)
		<-w.wake
		if w.killed {
			w.eng.killAck <- struct{}{}
			return
		}
	}
}

// exec is the body of one process execution: it runs fn and performs the
// death bookkeeping. It reports whether the process was unwound by
// Shutdown (in which case the caller exits without dispatching — the
// shutdown caller holds control).
func (p *Proc) exec(fn func(*Proc)) (killed bool) {
	defer func() {
		p.dead = true
		p.eng.live--
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(killSignal); ok {
			killed = true
			return
		}
		// Re-panic with the process identified; the unrecovered panic
		// takes the program down, so tests see the failure with a
		// coherent stack instead of a hung channel.
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
	}()
	fn(p)
	return false
}

// yield returns control to the event loop by dispatching in place. The
// process must already have arranged for something to wake it (directly or
// via a scheduled event), otherwise it sleeps forever and Run reports a
// deadlock. If the next runnable event is this process's own wake, control
// never leaves the goroutine and no channel operation happens.
func (p *Proc) yield() {
	if p.killed {
		panic(killSignal{})
	}
	if p.eng.dispatch(p, false) {
		return
	}
	<-p.resume
	if p.killed {
		panic(killSignal{})
	}
}

// Sleep suspends the process for d of virtual time. Even a zero sleep is a
// scheduling point: other events at this instant run first, matching the
// "post then yield" semantics protocol code relies on.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	p.eng.atWake(p.eng.now.Add(d), p)
	p.yield()
}

// parkBlocked suspends the process with no wake-up scheduled; the waker is
// responsible for scheduling a wake via scheduleWake. The engine counts
// parked non-daemon processes to detect deadlock, and all parked processes
// to verify teardown (see CheckLeaks).
func (p *Proc) parkBlocked() {
	if !p.daemon {
		p.eng.blocked++
	}
	p.parked = true
	p.eng.parked++
	p.yield()
	p.parked = false
	p.eng.parked--
	if !p.daemon {
		p.eng.blocked--
	}
}

// scheduleWake schedules this process to resume at the current instant
// (after already-queued events). Used by Signal/Queue wakers.
func (p *Proc) scheduleWake() {
	p.eng.atWake(p.eng.now, p)
}
