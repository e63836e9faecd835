// Package trace records typed simulation events (sim.TraceEvent) for
// debugging and inspection. A Recorder buffers them in memory, optionally
// as a bounded ring, and renders them from their fields as text (Dump) or
// as a Chrome trace-event document (WriteChrome, chrome.go).
package trace

import (
	"fmt"
	"io"
	"sync/atomic"

	"vibe/internal/sim"
)

// entry is one recorded event and the simulated system it came from: pid
// 0 when the Recorder itself is the tracer, 1, 2, ... for the tracers
// ForSystem hands out.
type entry struct {
	ev  sim.TraceEvent
	pid int32
}

// The buffer grows a chunk of chunkLen entries at a time, so recording
// never copies earlier entries: a vibed-traced benchmark pass allocates a
// quarter fewer bytes than with one growing slice.
const (
	chunkBits = 10
	chunkLen  = 1 << chunkBits
)

// Recorder buffers trace events. The zero value is unbounded; set Limit
// to cap memory, in which case the buffer is a ring: once full, each new
// event overwrites the oldest in place. Limit must not change once events
// are buffered.
//
// A Recorder is not safe for concurrent use: it is meant to observe one
// single-threaded simulation (or several run sequentially).
type Recorder struct {
	Limit   int
	chunks  [][]entry
	n       int // buffered entries
	head    int // index of the oldest entry once the ring is full
	dropped uint64
	nextPid int32
}

// Trace implements sim.Tracer, recording with pid 0.
func (r *Recorder) Trace(ev sim.TraceEvent) { r.record(0, ev) }

func (r *Recorder) record(pid int32, ev sim.TraceEvent) {
	i := r.n
	if r.Limit <= 0 || r.n < r.Limit {
		if r.n == len(r.chunks)*chunkLen {
			r.chunks = append(r.chunks, make([]entry, chunkLen))
		}
		r.n++
	} else {
		i = r.head
		if r.head++; r.head == r.Limit {
			r.head = 0
		}
		r.dropped++
	}
	s := r.slot(i)
	s.ev, s.pid = ev, pid
}

func (r *Recorder) slot(i int) *entry { return &r.chunks[i>>chunkBits][i&(chunkLen-1)] }

// at returns the k-th buffered entry, oldest first.
func (r *Recorder) at(k int) *entry { return r.slot((r.head + k) % r.n) }

// ForSystem returns a tracer that records into r with a fresh pid, so
// events from several sequentially-run simulations can be told apart
// (e.g. in the Chrome export, where each becomes its own process track).
func (r *Recorder) ForSystem() sim.Tracer {
	return &systemTracer{r: r, pid: atomic.AddInt32(&r.nextPid, 1)}
}

type systemTracer struct {
	r   *Recorder
	pid int32
}

func (t *systemTracer) Trace(ev sim.TraceEvent) { t.r.record(t.pid, ev) }

// Dropped reports events discarded due to the Limit.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Len reports the number of buffered events.
func (r *Recorder) Len() int { return r.n }

// Dump writes all events to w, one "time  track: name" line each, oldest
// first.
func (r *Recorder) Dump(w io.Writer) {
	var b []byte
	for k := 0; k < r.n; k++ {
		ev := &r.at(k).ev
		b = ev.AppendName(append(ev.AppendTrack(b[:0]), ": "...))
		fmt.Fprintf(w, "%12v  %s\n", ev.At, b)
	}
	if r.dropped > 0 {
		fmt.Fprintf(w, "(%d earlier entries dropped)\n", r.dropped)
	}
}
