package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.At(20, func() { got = append(got, "b") })
	e.At(10, func() { got = append(got, "a") })
	e.At(20, func() { got = append(got, "c") }) // same instant: schedule order
	e.At(30, func() { got = append(got, "d") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[a b c d]"
	if fmt.Sprint(got) != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %v, want 30ns", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestProcSleepInterleaving(t *testing.T) {
	e := NewEngine(1)
	var got []string
	log := func(p *Proc, s string) { got = append(got, fmt.Sprintf("%s@%d", s, p.Now())) }
	e.Spawn("a", func(p *Proc) {
		log(p, "a1")
		p.Sleep(10)
		log(p, "a2")
		p.Sleep(20)
		log(p, "a3")
	})
	e.Spawn("b", func(p *Proc) {
		log(p, "b1")
		p.Sleep(15)
		log(p, "b2")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[a1@0 b1@0 a2@10 b2@15 a3@30]"
	if fmt.Sprint(got) != want {
		t.Fatalf("trace = %v, want %v", got, want)
	}
}

func TestZeroSleepIsSchedulingPoint(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.Spawn("a", func(p *Proc) {
		got = append(got, "a1")
		p.Sleep(0)
		got = append(got, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		got = append(got, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// b starts before a resumes from its zero-length sleep.
	want := "[a1 b1 a2]"
	if fmt.Sprint(got) != want {
		t.Fatalf("trace = %v, want %v", got, want)
	}
}

func TestSignalWakeOne(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	var got []string
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			s.Wait(p)
			got = append(got, fmt.Sprintf("w%d@%d", i, p.Now()))
		})
	}
	e.Spawn("sig", func(p *Proc) {
		p.Sleep(10)
		s.Signal()
		p.Sleep(10)
		s.Signal()
		p.Sleep(10)
		s.Signal()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[w0@10 w1@20 w2@30]"
	if fmt.Sprint(got) != want {
		t.Fatalf("trace = %v, want %v", got, want)
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	e.Spawn("sig", func(p *Proc) {
		p.Sleep(5)
		s.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestSignalWaitTimeout(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	var okEarly, okLate bool
	var tEarly, tLate Time
	e.Spawn("early", func(p *Proc) {
		okEarly = s.WaitTimeout(p, 100)
		tEarly = p.Now()
	})
	e.Spawn("late", func(p *Proc) {
		okLate = s.WaitTimeout(p, 5)
		tLate = p.Now()
	})
	e.Spawn("sig", func(p *Proc) {
		p.Sleep(10)
		s.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !okEarly || tEarly != 10 {
		t.Errorf("early: ok=%v at %v, want true at 10ns", okEarly, tEarly)
	}
	if okLate || tLate != 5 {
		t.Errorf("late: ok=%v at %v, want false at 5ns", okLate, tLate)
	}
	if s.Waiters() != 0 {
		t.Errorf("leftover waiters: %d", s.Waiters())
	}
}

func TestSignalTimeoutThenSignalDoesNotDoubleWake(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	wakes := 0
	e.Spawn("w", func(p *Proc) {
		s.WaitTimeout(p, 5)
		wakes++
		// Park again; the pending Signal at t=5 must not be consumed by
		// the timed-out waiter entry.
		s.Wait(p)
		wakes++
	})
	e.Spawn("sig", func(p *Proc) {
		p.Sleep(20)
		s.Signal()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != 2 {
		t.Fatalf("wakes = %d, want 2", wakes)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(10)
			q.Push(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("got %v", got)
	}
}

func TestQueuePopTimeout(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	var ok1, ok2 bool
	e.Spawn("c", func(p *Proc) {
		_, ok1 = q.PopTimeout(p, 5)
		_, ok2 = q.PopTimeout(p, 50)
	})
	e.Spawn("prod", func(p *Proc) {
		p.Sleep(20)
		q.Push(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ok1 {
		t.Error("first pop should have timed out")
	}
	if !ok2 {
		t.Error("second pop should have succeeded")
	}
}

func TestQueueTryPop(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue succeeded")
	}
	q.Push(7)
	v, ok := q.TryPop()
	if !ok || v != 7 {
		t.Fatalf("TryPop = %v,%v", v, ok)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestResourceFIFOAndOccupancy(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e)
	var got []string
	for i := 0; i < 3; i++ {
		i := i
		e.SpawnAfter(Duration(i), fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Acquire(p)
			p.Sleep(100)
			got = append(got, fmt.Sprintf("p%d@%d", i, p.Now()))
			r.Release(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[p0@100 p1@200 p2@300]"
	if fmt.Sprint(got) != want {
		t.Fatalf("trace = %v, want %v", got, want)
	}
}

func TestResourceReleaseByNonHolderPanics(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e)
	e.Spawn("a", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(10)
		r.Release(p)
	})
	e.Spawn("b", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("release by non-holder did not panic")
			}
		}()
		r.Release(p)
	})
	_ = e.Run()
}

func TestPipeSerialization(t *testing.T) {
	e := NewEngine(1)
	pp := NewPipe(e)
	var ends []Time
	e.At(0, func() { ends = append(ends, pp.Occupy(10)) })
	e.At(0, func() { ends = append(ends, pp.Occupy(10)) })
	e.At(25, func() { ends = append(ends, pp.Occupy(10)) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[10ns 20ns 35ns]"
	if fmt.Sprint(ends) != want {
		t.Fatalf("ends = %v, want %v", ends, want)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	e.Spawn("stuck", func(p *Proc) {
		s.Wait(p) // nobody will ever signal
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestDaemonDoesNotDeadlock(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	served := 0
	e.Spawn("daemon", func(p *Proc) {
		p.SetDaemon(true)
		for {
			q.Pop(p)
			served++
		}
	})
	e.Spawn("client", func(p *Proc) {
		p.Sleep(10)
		q.Push(1)
		p.Sleep(10)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("daemon counted as deadlock: %v", err)
	}
	if served != 1 {
		t.Fatalf("served = %d", served)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Spawn("loop", func(p *Proc) {
		for {
			p.Sleep(10)
			ran++
			if ran == 3 {
				e.Stop()
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 3 {
		t.Fatalf("ran = %d, want 3", ran)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %v, want 30ns", e.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine(42)
		q := NewQueue[int](e)
		var got []string
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(Duration(e.Rand().Intn(100)))
				q.Push(i)
			})
		}
		e.Spawn("c", func(p *Proc) {
			for i := 0; i < 4; i++ {
				got = append(got, fmt.Sprintf("%v@%d", q.Pop(p), p.Now()))
			}
		})
		e.MustRun()
		return got
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestDurationFormatting(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
	if Microseconds(2.5) != 2500 {
		t.Errorf("Microseconds(2.5) = %d", Microseconds(2.5))
	}
	if got := Microseconds(2.5).Micros(); got != 2.5 {
		t.Errorf("Micros() = %v", got)
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(100)
	if t0.Add(50) != 150 {
		t.Error("Add")
	}
	if Time(150).Sub(t0) != 50 {
		t.Error("Sub")
	}
	if Time(2*Microsecond).Micros() != 2 {
		t.Error("Micros")
	}
}

type sliceTracer struct{ lines []string }

func (s *sliceTracer) Trace(ev TraceEvent) {
	line := ev.AppendName(append(ev.AppendTrack([]byte(ev.At.String()+" ")), ": "...))
	s.lines = append(s.lines, string(line))
}

var testTraceName = NewTraceName("hello %+% dur=%")

func TestTracer(t *testing.T) {
	e := NewEngine(1)
	tr := &sliceTracer{}
	e.SetTracer(tr)
	e.At(10, func() {
		e.Trace(TraceEvent{At: e.Now(), Comp: TraceLink, ID: 3, Name: testTraceName, Args: [6]int64{7, -2, 40}})
	})
	e.MustRun()
	if len(tr.lines) != 1 || tr.lines[0] != "10ns link3: hello 7+-2 dur=40" {
		t.Fatalf("trace lines = %v", tr.lines)
	}
	e.SetTracer(nil)
	e.Trace(TraceEvent{Name: testTraceName}) // must not panic
}

// TestTraceNameLayouts checks layout rendering: arguments fill the '%'
// placeholders in order, unused arguments are ignored, and layouts that
// would need JSON escaping or more arguments than an event carries are
// rejected at registration.
func TestTraceNameLayouts(t *testing.T) {
	for _, c := range []struct {
		layout string
		want   string
	}{
		{"", ""},
		{"plain", "plain"},
		{"%", "1"},
		{"a=% b=%B %/%", "a=1 b=2B 3/4"},
		{"% % % % % %", "1 2 3 4 5 6"},
	} {
		ev := TraceEvent{Name: NewTraceName(c.layout), Args: [6]int64{1, 2, 3, 4, 5, 6}}
		if got := string(ev.AppendName(nil)); got != c.want {
			t.Errorf("layout %q rendered %q, want %q", c.layout, got, c.want)
		}
	}
	for _, bad := range []string{"% % % % % % %", `quote"`, "back\\slash", "<tag>", "a&b", "tab\t", "caf\u00e9"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("layout %q registered, want a panic", bad)
				}
			}()
			NewTraceName(bad)
		}()
	}
	if got := string((&TraceEvent{Comp: TraceSwitch, ID: 12}).AppendTrack(nil)); got != "switch12" {
		t.Errorf("track = %q, want switch12", got)
	}
}

// TestTracingGuardZeroAlloc pins the hot-path contract: a trace call
// allocates nothing, whether tracing is off or a tracer is installed.
func TestTracingGuardZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	emit := func() {
		if e.Tracing() {
			e.Trace(TraceEvent{At: e.Now(), Comp: TraceNIC, ID: 1, Name: testTraceName, Args: [6]int64{1, 2, 3}})
		}
	}
	if n := testing.AllocsPerRun(200, emit); n != 0 {
		t.Fatalf("guarded trace call allocated %.1f per run with tracing off", n)
	}
	var c countTracer
	e.SetTracer(&c)
	if n := testing.AllocsPerRun(200, emit); n != 0 || c == 0 {
		t.Fatalf("trace call allocated %.1f per run with a tracer (%d events)", n, c)
	}
}

type countTracer int

func (c *countTracer) Trace(TraceEvent) { *c++ }

// The random source is seeded lazily; an engine that first draws late, in
// the middle of a run, must see exactly the sequence an eagerly seeded
// source yields.
func TestRandLazySeedMatchesEager(t *testing.T) {
	const seed, n = 42, 16
	eager := rand.New(rand.NewSource(seed))
	late := NewEngine(seed)
	var got []int64
	late.At(10, func() {})
	late.At(500, func() {
		for i := 0; i < n; i++ {
			got = append(got, late.Rand().Int63())
		}
	})
	if err := late.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("drew %d values, want %d", len(got), n)
	}
	for i, v := range got {
		if want := eager.Int63(); v != want {
			t.Fatalf("draw %d: late %d, eager %d", i, v, want)
		}
	}
}
