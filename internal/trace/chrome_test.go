package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"vibe/internal/sim"
)

// chromeDoc is the part of the Chrome trace-event schema the tests read.
type chromeDoc struct {
	TraceEvents []struct {
		Name string                 `json:"name"`
		Ph   string                 `json:"ph"`
		Ts   float64                `json:"ts"`
		Dur  float64                `json:"dur"`
		Pid  int                    `json:"pid"`
		Tid  int                    `json:"tid"`
		Args map[string]interface{} `json:"args"`
	} `json:"traceEvents"`
}

func exportChrome(t *testing.T, r *Recorder) chromeDoc {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, b.Bytes())
	}
	return doc
}

// TestWriteChromeSchema validates the export against the Chrome
// trace-event format: a top-level traceEvents array whose records carry
// name/ph/ts/pid/tid, instant events scoped to threads, complete events
// with durations, and thread_name plus sort-index metadata for every
// (pid, tid) used.
func TestWriteChromeSchema(t *testing.T) {
	var r Recorder
	t1 := r.ForSystem()
	t2 := r.ForSystem()
	t1.Trace(tick(1500, 1))
	ev := tick(2500, 2)
	ev.ID = 1
	t1.Trace(ev)
	ev.Comp = sim.TraceLink
	t2.Trace(ev)

	var b bytes.Buffer
	if err := r.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}

	named := make(map[[2]int]bool)  // (pid, tid) with thread_name metadata
	sorted := make(map[[2]int]bool) // (pid, tid) with thread_sort_index
	procSorted := make(map[int]bool)
	instants := 0
	for _, ev := range doc.TraceEvents {
		for _, k := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event missing %q: %v", k, ev)
			}
		}
		pid, tid := int(ev["pid"].(float64)), int(ev["tid"].(float64))
		switch ph := ev["ph"].(string); ph {
		case "M":
			args := ev["args"].(map[string]interface{})
			switch ev["name"] {
			case "thread_name":
				if args["name"] == "" {
					t.Fatalf("metadata without thread name: %v", ev)
				}
				named[[2]int{pid, tid}] = true
			case "thread_sort_index":
				if _, ok := args["sort_index"].(float64); !ok {
					t.Fatalf("thread_sort_index without numeric sort_index: %v", ev)
				}
				sorted[[2]int{pid, tid}] = true
			case "process_sort_index":
				if _, ok := args["sort_index"].(float64); !ok {
					t.Fatalf("process_sort_index without numeric sort_index: %v", ev)
				}
				procSorted[pid] = true
			default:
				t.Fatalf("unexpected metadata event %v", ev)
			}
		case "i":
			instants++
			if ev["s"] != "t" {
				t.Fatalf("instant event not thread-scoped: %v", ev)
			}
			if !named[[2]int{pid, tid}] {
				t.Fatalf("instant on unnamed thread pid=%d tid=%d", pid, tid)
			}
			if !sorted[[2]int{pid, tid}] || !procSorted[pid] {
				t.Fatalf("instant on unsorted track pid=%d tid=%d", pid, tid)
			}
		default:
			t.Fatalf("unexpected phase %q", ph)
		}
	}
	if instants != 3 {
		t.Fatalf("instants = %d, want 3", instants)
	}
}

// TestWriteChromeTracks checks the component and pid mapping: events
// from different systems land in different processes, distinct component
// instances land on distinct threads, and timestamps convert from virtual
// nanoseconds to microseconds.
func TestWriteChromeTracks(t *testing.T) {
	var r Recorder
	sys := r.ForSystem()
	sys.Trace(tick(3000, 1))
	ev := tick(4000, 2)
	ev.ID = 1
	sys.Trace(ev)
	r.Trace(tick(1000, 3)) // pid 0, via the Recorder directly

	pids := make(map[int]bool)
	tidByName := make(map[string]int)
	for _, ev := range exportChrome(t, &r).TraceEvents {
		pids[ev.Pid] = true
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Pid == 1 {
			tidByName[ev.Args["name"].(string)] = ev.Tid
		}
		if ev.Ph == "i" && ev.Name == "tick 1" && ev.Ts != 3.0 {
			t.Fatalf("ts = %v us, want 3.0", ev.Ts)
		}
	}
	if !pids[0] || !pids[1] {
		t.Fatalf("pids = %v, want both 0 and 1", pids)
	}
	if len(tidByName) != 2 || tidByName["nic0"] == tidByName["nic1"] {
		t.Fatalf("thread mapping = %v, want distinct nic0/nic1", tidByName)
	}
}

// TestWriteChromeSpans checks duration-carrying events export as "X"
// complete events with start and duration in microseconds.
func TestWriteChromeSpans(t *testing.T) {
	var r Recorder
	r.ForSystem().Trace(tick(1000, 1))
	r.Trace(sim.TraceEvent{At: 2000, Dur: 5000, Comp: sim.TraceSpan, Name: testSend, Args: [6]int64{4096}})

	var complete int
	for _, ev := range exportChrome(t, &r).TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		complete++
		if ev.Name != "send 4096B ok" || ev.Ts != 2.0 || ev.Dur != 5.0 {
			t.Fatalf("complete event = %+v, want send 4096B ok, ts=2us dur=5us", ev)
		}
	}
	if complete != 1 {
		t.Fatalf("%d complete events exported, want 1", complete)
	}
}

// TestWriteChromeEmpty checks an empty recorder still exports a valid
// document with an empty event array.
func TestWriteChromeEmpty(t *testing.T) {
	var b bytes.Buffer
	if err := new(Recorder).WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "{\"traceEvents\":[]}\n" {
		t.Fatalf("empty export = %q", got)
	}
}

// TestComponentRank checks data-path ordering: span before nic before
// link before switch, instances in numeric order within a component.
func TestComponentRank(t *testing.T) {
	order := []sim.TraceEvent{
		{Comp: sim.TraceSpan}, {Comp: sim.TraceSpan, ID: 1}, {Comp: sim.TraceNIC}, {Comp: sim.TraceNIC, ID: 1},
		{Comp: sim.TraceNIC, ID: 10}, {Comp: sim.TraceLink, ID: 3}, {Comp: sim.TraceSwitch}, {Comp: sim.TraceSwitch, ID: 2},
	}
	for i := 1; i < len(order); i++ {
		if a, b := rank(&order[i-1]), rank(&order[i]); a >= b {
			t.Errorf("rank(%s)=%d >= rank(%s)=%d", order[i-1].AppendTrack(nil), a, order[i].AppendTrack(nil), b)
		}
	}
	if got := rank(&sim.TraceEvent{Comp: sim.TraceNIC, ID: 7}); got != 407 {
		t.Errorf("rank(nic7) = %d, want 407", got)
	}
}
