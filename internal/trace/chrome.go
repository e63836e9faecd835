package trace

import (
	"bufio"
	"io"
	"strconv"

	"vibe/internal/sim"
)

// WriteChrome exports the buffered events as a Chrome trace-event JSON
// document, the format chrome://tracing and Perfetto (ui.perfetto.dev)
// load directly. Each recorded system (pid) becomes a process track, and
// within it each component instance (span0, nic1, link3, switch2) becomes
// a named thread track, so the NIC engines of each host line up as
// parallel timelines. Events without a duration are thread-scoped instant
// ("i") events; spans are complete ("X") events that render as real bars.
// process_sort_index and thread_sort_index metadata keep systems in run
// order and components in data-path order.
//
// The document is written event by event as the buffer is walked,
// rendered into one reused byte slice, so exporting allocates nothing per
// event.
func (r *Recorder) WriteChrome(w io.Writer) error {
	type track struct {
		pid  int32
		comp sim.TraceComp
		id   int32
	}
	tids := make(map[track]int)
	threads := make(map[int32]int) // thread tracks per pid so far
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.WriteString(`{"traceEvents":[`)
	b := make([]byte, 0, 512)
	for k := 0; k < r.n; k++ {
		// Every record starts with a comma; the document's first drops it.
		e := r.at(k)
		b = b[:0]
		if _, ok := threads[e.pid]; !ok {
			threads[e.pid] = 0
			b = appendMeta(b, "process_sort_index", e.pid, 0)
			b = append(strconv.AppendInt(append(b, `"sort_index":`...), int64(e.pid), 10), "}}"...)
		}
		t := track{e.pid, e.ev.Comp, e.ev.ID}
		tid, ok := tids[t]
		if !ok {
			threads[e.pid]++
			tid = threads[e.pid]
			tids[t] = tid
			b = appendMeta(b, "thread_name", e.pid, tid)
			b = append(e.ev.AppendTrack(append(b, `"name":"`...)), `"}}`...)
			b = appendMeta(b, "thread_sort_index", e.pid, tid)
			b = append(strconv.AppendInt(append(b, `"sort_index":`...), rank(&e.ev), 10), "}}"...)
		}
		b = e.ev.AppendName(append(b, `,{"name":"`...))
		if e.ev.Dur > 0 {
			b = appendMicros(append(b, `","ph":"X","ts":`...), int64(e.ev.At))
			b = appendMicros(append(b, `,"dur":`...), int64(e.ev.Dur))
			b = appendIDs(b, e.pid, tid)
		} else {
			b = appendMicros(append(b, `","ph":"i","ts":`...), int64(e.ev.At))
			b = append(appendIDs(b, e.pid, tid), `,"s":"t"`...)
		}
		b = append(b, '}')
		if k == 0 {
			bw.Write(b[1:])
		} else {
			bw.Write(b)
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush() // reports the first failed write, if any
}

// rank is a track's thread_sort_index: data-path position, then instance
// number. Positions start at 3 (span 300, nic 400, link 500, switch 600)
// so exported traces stay byte-identical to those of earlier releases.
func rank(ev *sim.TraceEvent) int64 { return int64(ev.Comp+3)*100 + int64(ev.ID) }

// appendMeta appends the start of a metadata record, up to the opening
// of its args object.
func appendMeta(b []byte, name string, pid int32, tid int) []byte {
	b = append(append(append(b, `,{"name":"`...), name...), `","ph":"M","ts":0`...)
	return append(appendIDs(b, pid, tid), `,"args":{`...)
}

func appendIDs(b []byte, pid int32, tid int) []byte {
	b = strconv.AppendInt(append(b, `,"pid":`...), int64(pid), 10)
	return strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
}

// appendMicros appends a virtual-time value in nanoseconds as
// microseconds, formatted the way encoding/json formats a float64.
func appendMicros(b []byte, ns int64) []byte {
	return strconv.AppendFloat(b, float64(ns)/1e3, 'f', -1, 64)
}
