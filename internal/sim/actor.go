package sim

// This file is the continuation-actor API: a way to run a queue consumer
// entirely on the event loop, with zero goroutine handoffs, while keeping
// the goroutine Proc API available for the same logic.
//
// A Machine describes one consumer as an explicit state machine. The
// machine's code is written once and driven two ways:
//
//   - Queue.ServeProc runs it on a goroutine process — the reference
//     model, one Sleep per transition, easiest to relate to ordinary
//     process code.
//   - Queue.Serve runs it as a service on the event loop — every
//     transition is a closure-free continuation event, so a simulation
//     dominated by hot machines never leaves the dispatch loop.
//
// Determinism contract: both drivers allocate engine events at identical
// (time, seq) positions. A Push wakes an idle consumer by scheduling
// exactly one event at the current instant (the Signal wake in the Proc
// driver, the pump event in the service); a transition returning (d, pc)
// allocates exactly one event at now+d (the Sleep wake, the continuation
// event); Begin and Step bodies run inside the dispatched event in both.
// Since the engine orders all events by the (at, seq) total order, the
// two drivers dispatch byte-identical event streams — results, metrics
// and traces cannot tell them apart.

// StepDone is returned as the next state when the machine is finished
// with the current item. The paired Duration must be zero: the drivers
// do not sleep before popping the next item, exactly like a goroutine
// loop that ends an iteration and re-enters Pop.
const StepDone = -1

// pcPump marks the internal service event scheduled by Push to start an
// idle service; it carries no machine state.
const pcPump = -2

// Machine is a queue consumer written as an explicit state machine.
//
// Begin runs when an item is popped and executes up to the first sleep,
// returning (d, pc): "sleep d of virtual time, then resume at state pc".
// Step(pc) executes the segment after that sleep up to the next one.
// Returning StepDone (with d == 0) ends the item; the driver pops the
// next item immediately, or goes idle when the queue is empty.
//
// A segment that reaches the next segment without sleeping should call
// its own Step(pc) inline and return the result — the fall-through is a
// plain function call, not a scheduling point, matching code that simply
// runs on in the goroutine model.
type Machine[T any] interface {
	Begin(item T) (Duration, int)
	Step(pc int) (Duration, int)
}

// service drives a Machine from a Queue on the event loop.
type service[T any] struct {
	eng  *Engine
	q    *Queue[T]
	m    Machine[T]
	idle bool
}

// notify is the service-side analogue of Signal: Push calls it and it
// schedules the pump event only on the empty→non-empty transition, the
// same single wake event the Proc driver's Signal would schedule.
func (s *service[T]) notify() {
	if !s.idle {
		return
	}
	s.idle = false
	s.eng.AtHandler(s.eng.now, s, pcPump)
}

// Handle runs one dispatched continuation: the pending machine segment,
// then as many whole items as complete without sleeping, then either
// schedules the next continuation or goes idle.
func (s *service[T]) Handle(pc int) {
	var d Duration
	next := StepDone
	if pc != pcPump {
		d, next = s.m.Step(pc)
	}
	for next == StepDone {
		v, ok := s.q.TryPop()
		if !ok {
			s.idle = true
			return
		}
		d, next = s.m.Begin(v)
	}
	s.eng.AtHandler(s.eng.now.Add(d), s, next)
}

// Serve binds m to the queue as an event-loop service: from now on every
// Push feeds the machine without any goroutine involvement. A queue is
// served by exactly one consumer; Serve panics on a second binding.
func (q *Queue[T]) Serve(m Machine[T]) {
	if q.svc != nil {
		panic("sim: queue already has a serving machine")
	}
	q.svc = &service[T]{eng: q.eng, q: q, m: m, idle: true}
	if q.Len() > 0 {
		q.svc.notify()
	}
}

// ServeProc drives m from the queue on the calling goroutine process,
// forever: the reference implementation of Serve. The loop below is the
// executable definition of the Machine contract.
func (q *Queue[T]) ServeProc(p *Proc, m Machine[T]) {
	for {
		d, pc := m.Begin(q.Pop(p))
		for pc != StepDone {
			p.Sleep(d)
			d, pc = m.Step(pc)
		}
	}
}
