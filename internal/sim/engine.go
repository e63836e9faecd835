package sim

import (
	"fmt"
	"math/rand"
)

// Engine is a discrete-event simulation engine. It owns the virtual clock,
// the event queue, and the set of live processes. An Engine is not safe for
// use from multiple goroutines except through the process-handshake
// mechanism it manages itself; run independent simulations on independent
// engines (they share nothing, so engines may run in parallel with each
// other).
type Engine struct {
	now    Time
	events eventQueue
	seq    uint64
	seed   int64
	rng    *rand.Rand // built from seed on the first Rand call

	// toMain receives a token when the event queue drains (or Stop fires)
	// while a process goroutine holds control, returning control to Run.
	toMain chan struct{}

	live    int // number of spawned processes that have not finished
	blocked int // processes parked on a Signal/Queue/Resource (no wake event pending)
	parked  int // processes (daemons included) parked with no wake pending

	// procs registers every spawned process so Shutdown can unwind the
	// ones still parked and CheckLeaks can name them. Dead entries are
	// compacted amortizedly on registration.
	procs []*Proc

	// idleWorkers holds goroutines whose process function has returned,
	// parked for reuse by a later Spawn: spawn-heavy paths (completion
	// notify handlers) stop paying goroutine creation. Invisible to the
	// simulation — reuse changes no event, time, or sequence number.
	idleWorkers []*worker

	// killAck serializes Shutdown: each killed goroutine sends one token
	// as it exits, so teardown is synchronous and leak-free.
	killAck chan struct{}

	// dispatched counts events popped and executed, for the metrics layer.
	dispatched uint64

	stopped  bool
	shutdown bool
	tracer   Tracer
}

// NewEngine returns an engine with the virtual clock at zero. The seed
// drives every source of randomness in the simulation (e.g. packet-loss
// injection); runs with equal seeds are identical.
func NewEngine(seed int64) *Engine {
	return &Engine{
		seed:    seed,
		toMain:  make(chan struct{}, 1),
		killAck: make(chan struct{}),
		events:  eventQueue{a: make([]event, 0, 256)},
	}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It is seeded on
// first use, since most engines never draw from it; the sequence is the
// same as if it had been seeded in NewEngine.
func (e *Engine) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.seed))
	}
	return e.rng
}

// At schedules fn to run at instant t. Scheduling in the past panics: it
// would silently reorder causality.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d from now.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now.Add(d), fn)
}

// Handler is the target of a closure-free event: AtHandler(t, h, arg)
// calls h.Handle(arg) at instant t. The event stores the interface and
// the argument by value, and a pointer converts to an interface without
// allocating, so a handler that lives as long as its target (a queue
// service, a waiting process, a VI's retransmission timer) makes
// scheduling allocation-free where a func() closure would allocate on
// every call.
type Handler interface {
	Handle(arg int)
}

// AtHandler schedules h.Handle(arg) at instant t. It takes the same
// (time, seq) position as At(t, fn) would.
func (e *Engine) AtHandler(t Time, h Handler, arg int) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, svc: h, pc: arg})
}

// AfterHandler schedules h.Handle(arg) d from now.
func (e *Engine) AfterHandler(d Duration, h Handler, arg int) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.AtHandler(e.now.Add(d), h, arg)
}

// timer tracks a cancellable event's heap slot. i is maintained by the
// heap's sifts; -1 means fired, cancelled, or never scheduled.
type timer struct{ i int }

// atTimer schedules h.Handle(arg) at instant t as a cancellable event:
// cancelTimer removes it from the heap before it fires. Timeout waits use
// this so an abandoned deadline (the common case — most waits are woken,
// not timed out) does not linger in the heap until its instant arrives,
// deepening every sift and stretching the simulated run out to the last
// deadline.
func (e *Engine) atTimer(t Time, h Handler, arg int, tm *timer) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling timer at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, svc: h, pc: arg, tm: tm})
}

// cancelTimer removes a pending timer event. Cancelling an already fired
// (or cancelled) timer is a no-op.
func (e *Engine) cancelTimer(tm *timer) {
	if tm.i >= 0 {
		e.events.removeAt(tm.i)
		tm.i = -1
	}
}

// atWake schedules process p to resume at instant t. It is the closure-free
// equivalent of At(t, p.wake).
func (e *Engine) atWake(t Time, p *Proc) {
	e.seq++
	e.events.push(event{at: t, seq: e.seq, p: p})
}

// atStart schedules process p to begin running fn at instant t.
func (e *Engine) atStart(t Time, p *Proc, fn func(*Proc)) {
	e.seq++
	e.events.push(event{at: t, seq: e.seq, p: p, begin: fn})
}

// Stop makes Run return after the current event completes. Pending events
// are discarded.
func (e *Engine) Stop() { e.stopped = true }

// dispatch advances the event loop in the calling goroutine until control
// leaves it: it runs plain events inline and, on a wake or start event,
// hands control directly to the target process. self is the process whose
// goroutine is executing dispatch (nil for the main goroutine and for dying
// processes).
//
// It returns true if the caller keeps control (a wake event targeted self,
// or — from main — the queue drained) and false if control was handed to
// another goroutine, in which case the caller must block (or, for a dying
// process, exit).
//
// This direct handoff is the engine's scheduling hot path: the old design
// parked every yielding process into a central loop (two channel
// rendezvous per control transfer); here the yielding goroutine runs the
// dispatcher itself, so a transfer costs one buffered-channel token, and a
// process that is the next runnable one (the single-process Sleep loop)
// costs none at all.
func (e *Engine) dispatch(self *Proc, fromMain bool) bool {
	for !e.stopped && len(e.events.a) > 0 {
		ev := e.events.pop()
		e.dispatched++
		e.now = ev.at
		if ev.tm != nil {
			ev.tm.i = -1 // fired: cancellation is a no-op from here on
		}
		if ev.svc != nil {
			// Handler event (a machine continuation, a wait deadline):
			// it runs inline, control never leaves this goroutine.
			ev.svc.Handle(ev.pc)
			continue
		}
		if ev.p != nil {
			p := ev.p
			if ev.begin != nil {
				p.started = true
				e.startProc(p, ev.begin)
				return false
			}
			if p.dead {
				panic(fmt.Sprintf("sim: waking dead process %q", p.name))
			}
			if p == self {
				return true
			}
			p.resume <- struct{}{}
			return false
		}
		ev.fn()
	}
	if fromMain {
		return true
	}
	e.toMain <- struct{}{}
	return false
}

// Run drives the event loop until no events remain, Stop is called, or a
// deadlock is detected. It returns an error if live processes remain
// blocked with an empty event queue (a deadlock: nobody can ever wake
// them), which is almost always a bug in the simulated protocol.
func (e *Engine) Run() error {
	if !e.dispatch(nil, true) {
		<-e.toMain
	}
	if !e.stopped && e.blocked > 0 {
		return fmt.Errorf("sim: deadlock at %v: %d process(es) blocked with no pending events", e.now, e.blocked)
	}
	return nil
}

// EventsDispatched reports how many events the engine has executed.
func (e *Engine) EventsDispatched() uint64 { return e.dispatched }

// HeapHighWater reports the deepest the event queue has ever been.
func (e *Engine) HeapHighWater() int { return e.events.hw }

// MustRun is Run, panicking on deadlock. Benchmarks use it so that protocol
// bugs fail loudly.
func (e *Engine) MustRun() {
	if err := e.Run(); err != nil {
		panic(err)
	}
}

// CheckLeaks verifies that the simulation wound down cleanly after Run:
// no events pending and every live process parked on a Signal/Queue (a
// daemon loop or a blocked waiter) rather than runnable. A live process
// that is neither parked nor waiting on a scheduled wake is a goroutine
// the simulation lost track of. After Stop the check is vacuous (pending
// events and mid-sleep processes were deliberately abandoned), so it
// reports nil.
func (e *Engine) CheckLeaks() error {
	if e.stopped {
		return nil
	}
	if n := len(e.events.a); n > 0 {
		return fmt.Errorf("sim: %d event(s) still pending after Run", n)
	}
	if e.live == e.parked {
		return nil
	}
	var stray []string
	for _, p := range e.procs {
		if p != nil && !p.dead && !p.parked {
			stray = append(stray, p.name)
		}
	}
	return fmt.Errorf("sim: %d live process(es) not parked after Run: %v", e.live-e.parked, stray)
}

// Shutdown terminates the engine: every parked process goroutine and
// every pooled idle worker is unwound synchronously, so no goroutine
// outlives the simulation. The engine must be idle (between Runs); after
// Shutdown it must not be used again.
func (e *Engine) Shutdown() {
	if e.shutdown {
		return
	}
	e.shutdown = true
	e.stopped = true
	for _, p := range e.procs {
		if p == nil || p.dead {
			continue
		}
		if !p.started {
			// The begin event never dispatched (Stop discarded it): there
			// is no goroutine to unwind.
			p.dead = true
			e.live--
			continue
		}
		// The goroutine is blocked in <-p.resume (parked, or mid-sleep with
		// its wake event discarded by Stop). Wake it into the kill path and
		// wait for the goroutine to acknowledge its exit.
		p.killed = true
		p.resume <- struct{}{}
		<-e.killAck
	}
	e.procs = nil
	for _, w := range e.idleWorkers {
		w.killed = true
		w.wake <- struct{}{}
		<-e.killAck
	}
	e.idleWorkers = nil
}
