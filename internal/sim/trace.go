package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// TraceEvent is one traced simulation event, recorded as fields rather
// than text. Renderers build its track name from Comp and ID and its event
// name from Name's layout and Args, so nothing is formatted while a
// simulation records.
type TraceEvent struct {
	At   Time
	Dur  Duration // 0 for an instant event; otherwise a span starting at At
	Args [6]int64 // the layout's arguments, in order
	ID   int32    // component instance: host, link, switch or span owner
	Comp TraceComp
	Name TraceName
}

// TraceComp is the simulated component an event belongs to, in the order
// a message flows through the system.
type TraceComp uint8

const (
	TraceSpan TraceComp = iota
	TraceNIC
	TraceLink
	TraceSwitch
)

var compNames = [...]string{"span", "nic", "link", "switch"}

func (c TraceComp) String() string { return compNames[c] }

// TraceName identifies an event-name layout registered with NewTraceName.
// The zero TraceName is the empty name.
type TraceName uint16

var traceLayouts = []string{""}

// NewTraceName registers an event-name layout and returns its name. Each
// '%' in layout stands for the event's next argument, in decimal; every
// other byte is copied as is and must be printable ASCII that JSON
// strings carry unescaped. The registry is not locked: call NewTraceName
// only from package-level variable declarations.
func NewTraceName(layout string) TraceName {
	if n := strings.Count(layout, "%"); n > len(TraceEvent{}.Args) {
		panic(fmt.Sprintf("sim: trace layout %q takes %d arguments", layout, n))
	}
	for i := 0; i < len(layout); i++ {
		if c := layout[i]; c < ' ' || c > '~' || strings.IndexByte(`"\<>&`, c) >= 0 {
			panic(fmt.Sprintf("sim: trace layout %q needs escaping", layout))
		}
	}
	traceLayouts = append(traceLayouts, layout)
	return TraceName(len(traceLayouts) - 1)
}

// AppendTrack appends the event's track name, such as "nic3", to b.
func (ev *TraceEvent) AppendTrack(b []byte) []byte {
	return strconv.AppendInt(append(b, ev.Comp.String()...), int64(ev.ID), 10)
}

// AppendName appends the event's name, its layout with the arguments
// substituted, to b.
func (ev *TraceEvent) AppendName(b []byte) []byte {
	layout := traceLayouts[ev.Name]
	for _, arg := range ev.Args {
		i := strings.IndexByte(layout, '%')
		if i < 0 {
			break
		}
		b = strconv.AppendInt(append(b, layout[:i]...), arg, 10)
		layout = layout[i+1:]
	}
	return append(b, layout...)
}

// Tracer receives every traced simulation event. A nil tracer disables
// tracing.
type Tracer interface {
	Trace(ev TraceEvent)
}

// SetTracer installs tr as the engine's tracer. Pass nil to disable.
func (e *Engine) SetTracer(tr Tracer) { e.tracer = tr }

// Tracing reports whether a tracer is installed. Call sites whose event
// arguments cost work to compute should check it first.
func (e *Engine) Tracing() bool { return e.tracer != nil }

// Trace hands ev to the installed tracer, if any.
func (e *Engine) Trace(ev TraceEvent) {
	if e.tracer != nil {
		e.tracer.Trace(ev)
	}
}
