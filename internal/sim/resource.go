package sim

import "fmt"

// Resource models a serially-reusable unit of hardware (a bus, a DMA
// engine, a link transmitter): requests are served FIFO, one at a time.
// Acquire blocks until the resource is free; the holder releases it after
// modeling its occupancy with Sleep.
type Resource struct {
	eng    *Engine
	busy   bool
	queue  FIFO[*Proc]
	holder *Proc
}

// NewResource returns an idle resource bound to e.
func NewResource(e *Engine) *Resource { return &Resource{eng: e} }

// Acquire blocks the caller until it holds the resource.
func (r *Resource) Acquire(p *Proc) {
	if r.busy {
		r.queue.Push(p)
		p.parkBlocked()
		// Woken by Release, which has already transferred ownership.
		return
	}
	r.busy = true
	r.holder = p
}

// Release frees the resource and hands it to the next waiter, if any.
func (r *Resource) Release(p *Proc) {
	if !r.busy || r.holder != p {
		panic(fmt.Sprintf("sim: %q releasing resource it does not hold", p.name))
	}
	if r.queue.Len() > 0 {
		next := r.queue.Pop()
		r.holder = next
		next.scheduleWake()
		return
	}
	r.busy = false
	r.holder = nil
}

// Use acquires the resource, occupies it for d, and releases it.
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release(p)
}

// Busy reports whether the resource is currently held.
func (r *Resource) Busy() bool { return r.busy }

// QueueLen reports the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return r.queue.Len() }

// Pipe models a serialized transmitter without requiring the sender to be
// a process: Occupy reserves the next free slot of length d and returns the
// instant the slot ends. It is how links model bandwidth serialization for
// fire-and-forget packet sends scheduled from engine events.
type Pipe struct {
	eng  *Engine
	free Time // first instant the pipe is idle
}

// NewPipe returns an idle pipe bound to e.
func NewPipe(e *Engine) *Pipe { return &Pipe{eng: e} }

// Occupy reserves d of pipe time starting no earlier than now and returns
// the completion instant.
func (pp *Pipe) Occupy(d Duration) Time {
	return pp.OccupyFrom(pp.eng.now, d)
}

// OccupyFrom reserves d of pipe time starting no earlier than earliest and
// returns the completion instant. It models downstream stages whose input
// arrives in the future (e.g. a switch output port).
func (pp *Pipe) OccupyFrom(earliest Time, d Duration) Time {
	start := earliest
	if pp.free > start {
		start = pp.free
	}
	end := start.Add(d)
	pp.free = end
	return end
}

// FreeAt reports the first instant the pipe is idle.
func (pp *Pipe) FreeAt() Time { return pp.free }
