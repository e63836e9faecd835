// Command vibe runs individual VIBe micro-benchmarks against a simulated
// VIA provider, mirroring how the paper's suite is driven.
//
// Usage examples:
//
//	vibe -provider clan -bench latency
//	vibe -provider bvia -bench latency -reuse 0 -sizes 4,1024,28672
//	vibe -provider bvia -bench bandwidth -vis 16
//	vibe -provider mvia -bench latency -mode block -cq
//	vibe -provider clan -bench clientserver -req 16
//	vibe -provider clan -bench latency -set DoorbellCost=2us
//	vibe -provider clan -bench latency -sweep TLBCapacity=8,32,128
//	vibe -provider mvia -bench bandwidth -scenario tuned.json
//	vibe -provider clan -bench bandwidth -reliability delivery -fault plan.json
//	vibe -bench suite -quick -parallel 4
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"vibe/internal/bench"
	"vibe/internal/core"
	"vibe/internal/logp"
	"vibe/internal/mp"
	"vibe/internal/pipeline"
	"vibe/internal/provider"
	"vibe/internal/runner"
	"vibe/internal/table"
	"vibe/internal/via"
)

// benchArgs is everything a benchmark needs to run one scenario cell:
// cfg.Model is already the scenario-derived model.
type benchArgs struct {
	cfg   core.Config
	o     core.XferOpts
	sizes []int
	req   int
}

// benchSpec is one registry entry. The help string for -bench is derived
// from the registry, so adding a benchmark here is the single change.
type benchSpec struct {
	name string
	run  func(a benchArgs) (*core.Report, error)
}

func benches() []benchSpec {
	return []benchSpec{
		{"latency", xferBench("latency", "latency (us)", core.LatencySweep)},
		{"bandwidth", xferBench("bandwidth", "bandwidth (MB/s)", core.BandwidthSweep)},
		{"clientserver", func(a benchArgs) (*core.Report, error) {
			s, err := core.ClientServer(a.cfg, a.req, a.sizes)
			if err != nil {
				return nil, err
			}
			t := table.New(fmt.Sprintf("%s client-server, %dB requests", a.cfg.Model.Name, a.req),
				"reply size (bytes)", "transactions/s")
			for _, p := range s.Points {
				t.AddRow(int(p.X), p.Y)
			}
			return &core.Report{Tables: []*table.Table{t}}, nil
		}},
		{"nondata", func(a benchArgs) (*core.Report, error) {
			c, err := core.NonData(a.cfg)
			if err != nil {
				return nil, err
			}
			t := table.New(fmt.Sprintf("%s non-data transfer costs (us)", a.cfg.Model.Name),
				"operation", "cost")
			t.AddRow("create VI", c.CreateVi)
			t.AddRow("destroy VI", c.DestroyVi)
			t.AddRow("establish connection", c.EstablishConn)
			t.AddRow("tear down connection", c.TeardownConn)
			t.AddRow("create CQ", c.CreateCq)
			t.AddRow("destroy CQ", c.DestroyCq)
			return &core.Report{Tables: []*table.Table{t}}, nil
		}},
		{"memreg", func(a benchArgs) (*core.Report, error) {
			s, err := core.MemRegister(a.cfg, core.RegLadder())
			if err != nil {
				return nil, err
			}
			return regReport(a.cfg.Model.Name, "memreg", s), nil
		}},
		{"memdereg", func(a benchArgs) (*core.Report, error) {
			s, err := core.MemDeregister(a.cfg, core.RegLadder())
			if err != nil {
				return nil, err
			}
			return regReport(a.cfg.Model.Name, "memdereg", s), nil
		}},
		{"logp", func(a benchArgs) (*core.Report, error) {
			ins, err := logp.Explain(a.cfg.Model)
			if err != nil {
				return nil, err
			}
			return &core.Report{Notes: []string{
				fmt.Sprintf("%s LogP parameters: %v", a.cfg.Model.Name, ins.Params),
				"LogP-predicted small-message latency is constant, yet:",
				fmt.Sprintf("  base 4B latency:            %8.2f us", ins.BaseLatencyUs),
				fmt.Sprintf("  with 16 open VIs:           %8.2f us", ins.LatencyAt16VIs),
				fmt.Sprintf("  with 0%% buffer reuse:       %8.2f us", ins.LatencyAt0Reuse),
				"This spread is what VIBe measures and LogP cannot (paper §1).",
			}}, nil
		}},
		{"mp", func(a benchArgs) (*core.Report, error) {
			s, err := core.MPLatency(a.cfg, a.sizes, mp.DefaultConfig())
			if err != nil {
				return nil, err
			}
			t := table.New(fmt.Sprintf("%s message-passing layer latency", a.cfg.Model.Name),
				"size (bytes)", "latency (us)")
			for _, p := range s.Points {
				t.AddRow(int(p.X), p.Y)
			}
			return &core.Report{Tables: []*table.Table{t}}, nil
		}},
		{"getput", func(a benchArgs) (*core.Report, error) {
			t := table.New(fmt.Sprintf("%s get/put layer latency", a.cfg.Model.Name),
				"size (bytes)", "put (us)", "get (us)")
			for _, size := range a.sizes {
				put, get, err := core.GPLatency(a.cfg, size)
				if err != nil {
					return nil, err
				}
				t.AddRow(size, put, get)
			}
			return &core.Report{Tables: []*table.Table{t}}, nil
		}},
	}
}

// xferBench builds a data-transfer benchmark: one row per message size
// with the sweep's measurement and the host CPU utilization.
func xferBench(what, unit string, sweep func(core.Config, []int, core.XferOpts) (*bench.Series, *bench.Series, error)) func(benchArgs) (*core.Report, error) {
	return func(a benchArgs) (*core.Report, error) {
		ys, cpuU, err := sweep(a.cfg, a.sizes, a.o)
		if err != nil {
			return nil, err
		}
		t := table.New(fmt.Sprintf("%s %s (%s)", a.cfg.Model.Name, what, a.o.Mode),
			"size (bytes)", unit, "CPU (%)")
		for i, p := range ys.Points {
			t.AddRow(int(p.X), p.Y, cpuU.Points[i].Y)
		}
		return &core.Report{Tables: []*table.Table{t}}, nil
	}
}

func regReport(model, which string, s *bench.Series) *core.Report {
	t := table.New(fmt.Sprintf("%s %s cost", model, which), "buffer (bytes)", "cost (us)")
	for _, p := range s.Points {
		t.AddRow(int(p.X), p.Y)
	}
	return &core.Report{Tables: []*table.Table{t}}
}

func benchByName(name string) (benchSpec, bool) {
	for _, b := range benches() {
		if b.name == name {
			return b, true
		}
	}
	return benchSpec{}, false
}

// benchHelp and providerHelp derive the flag descriptions from the
// registries, so the help text cannot drift from what actually runs.
func benchHelp() string {
	names := make([]string, 0, len(benches())+1)
	for _, b := range benches() {
		names = append(names, b.name)
	}
	names = append(names, "suite")
	return "benchmark: " + strings.Join(names, ", ")
}

func providerHelp() string {
	return "provider model: " + strings.Join(provider.Names(), ", ")
}

func main() {
	var sets, sweeps []string
	var (
		prov         = flag.String("provider", "clan", providerHelp())
		benchSel     = flag.String("bench", "latency", benchHelp())
		scenarioPath = flag.String("scenario", "", "JSON scenario file: {\"base\":..., \"set\":{...}, \"run\":{...}}")
		faultPath    = flag.String("fault", "", "JSON fault plan file installed into every simulated system (wins over the scenario file's plan)")
		sizesArg     = flag.String("sizes", "", "comma-separated message sizes (default: paper ladder)")
		mode         = flag.String("mode", "poll", "completion mode: poll or block")
		useCQ        = flag.Bool("cq", false, "check receive completions via a completion queue")
		reuse        = flag.Int("reuse", -1, "buffer reuse percent 0..100 (-1 = base: one buffer)")
		vis          = flag.Int("vis", 1, "number of open VIs")
		segs         = flag.Int("segments", 1, "data segments per descriptor")
		rdma         = flag.Bool("rdma", false, "use RDMA writes with immediate data")
		notify       = flag.Bool("notify", false, "server handles receives via async handler")
		window       = flag.Int("window", 0, "sender pipeline bound for bandwidth (0 = unbounded)")
		rel          = flag.String("reliability", "unreliable", "unreliable, delivery, reception")
		req          = flag.Int("req", 16, "request size for clientserver")
		iters        = flag.Int("iters", 0, "override timed iterations")
		csv          = flag.Bool("csv", false, "emit CSV")
		parallel     = flag.Int("parallel", runtime.NumCPU(), "worker count for -bench suite and -sweep cells")
		quick        = flag.Bool("quick", false, "smaller sweeps for -bench suite")
		params       = flag.Bool("params", false, "list the model parameter catalog (-set/-sweep names) and exit")
		metricsOn    = flag.Bool("metrics", false, "print per-component simulation counters after the run")
		metricsOut   = flag.String("metrics-out", "", "write the final merged metrics snapshot as key-sorted JSON (implies metric collection)")
		progress     = flag.Bool("progress", false, "with -bench suite, print a per-cell progress line to stderr as cells complete")
		traceOut     = flag.String("trace-out", "", "write a Chrome trace-event JSON file (chrome://tracing, Perfetto); forces -parallel 1")
		spanSample   = flag.Int("span-sample", 1, "with -metrics/-trace-out, record every Nth message's lifecycle span (1 = every message, 0 = disable)")
		profileOut   = flag.String("profile-out", "", "write a folded-stack virtual-time profile (flamegraph/pprof input)")
		topo         = flag.String("topo", "", "fabric topology: crossbar, fattree, dragonfly, torus3d (shorthand for -set NetTopology=...)")
		route        = flag.String("route", "", "multipath route policy: failover, adaptive (shorthand for -set NetRoutePolicy=...)")
	)
	flag.Func("set", "override a model parameter, e.g. -set DoorbellCost=2us (repeatable; see provider catalog)",
		func(v string) error { sets = append(sets, v); return nil })
	flag.Func("sweep", "sweep a parameter over values, e.g. -sweep TLBCapacity=8,32,128 (repeatable; cells form a grid)",
		func(v string) error { sweeps = append(sweeps, v); return nil })
	flag.Parse()

	if *params {
		for _, p := range provider.Params() {
			fmt.Printf("%-19s %-8s %-22s %s\n", p.Name, p.Kind, p.Unit, p.Doc)
		}
		return
	}

	// -topo and -route are -set shorthands, applied after the -set flags.
	if *topo != "" {
		sets = append(sets, "NetTopology="+*topo)
	}
	if *route != "" {
		sets = append(sets, "NetRoutePolicy="+*route)
	}
	spec, err := pipeline.Spec(*scenarioPath, sets, *faultPath)
	if err != nil {
		fatal(err)
	}
	o, err := xferOpts(*mode, *rel)
	if err != nil {
		fatal(err)
	}
	o.RecvViaCQ = *useCQ
	o.ActiveVIs = *vis
	o.Segments = *segs
	o.RDMA = *rdma
	o.Notify = *notify
	o.Window = *window
	if *reuse >= 0 {
		o.VaryBuffers = true
		o.ReusePct = *reuse
	}
	plan := pipeline.Plan{
		Spec:       spec,
		Sweeps:     sweeps,
		Quick:      *quick,
		Metrics:    *metricsOn || *metricsOut != "",
		Trace:      *traceOut != "",
		Profile:    *profileOut != "",
		SpanSample: *spanSample,
		Workers:    *parallel,
	}

	var progressFn func(runner.ProgressEvent)
	if *benchSel == "suite" {
		plan.Experiments = core.Experiments()
		if *progress {
			progressFn = printProgress
		}
	} else {
		b, ok := benchByName(*benchSel)
		if !ok {
			fatal(fmt.Errorf("unknown benchmark %q (have: %s)", *benchSel, benchHelp()))
		}
		// The scenario file's base model is the default provider; an
		// explicit -provider flag wins over it.
		baseName := *prov
		if spec.Base != "" && !flagWasSet("provider") {
			baseName = spec.Base
		}
		m, err := provider.ByNameExtended(baseName)
		if err != nil {
			fatal(err)
		}
		sizes := bench.SizeLadder()
		if *sizesArg != "" {
			sizes = nil
			for _, s := range strings.Split(*sizesArg, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil {
					fatal(fmt.Errorf("bad size %q: %v", s, err))
				}
				sizes = append(sizes, n)
			}
		}
		// Each (benchmark, scenario) cell runs as a synthetic experiment
		// on the runner's pool, so sweep grids parallelize exactly like
		// the suite.
		plan.Experiments = []*core.Experiment{{
			ID:    b.name,
			Title: b.name,
			Run: func(sc *core.Scenario) (*core.Report, error) {
				cfg := sc.Config(m)
				if *iters > 0 {
					cfg.Iters = *iters
				}
				return b.run(benchArgs{cfg: cfg, o: o, sizes: sizes, req: *req})
			},
		}}
	}

	run, err := pipeline.Compile(plan)
	if err != nil {
		fatal(err)
	}
	a, err := run.Execute(progressFn)
	if *benchSel == "suite" {
		printSuite(a)
	} else {
		printBench(a, *csv)
	}
	if *metricsOn {
		for si := range a.Scenarios {
			fmt.Println()
			a.WriteMetrics(os.Stdout, si)
		}
	}
	if err := a.SaveMetrics(os.Stdout, *metricsOut); err != nil {
		fatal(err)
	}
	if err := a.SaveTrace(os.Stdout, *traceOut); err != nil {
		fatal(err)
	}
	if err := a.SaveProfile(os.Stdout, *profileOut); err != nil {
		fatal(err)
	}
	if err != nil {
		fatal(err)
	}
}

// xferOpts parses the -mode and -reliability flags, rejecting unknown
// values.
func xferOpts(mode, rel string) (core.XferOpts, error) {
	var o core.XferOpts
	switch mode {
	case "poll":
	case "block":
		o.Mode = core.Blocking
	default:
		return o, fmt.Errorf("unknown mode %q (want poll or block)", mode)
	}
	switch rel {
	case "unreliable":
	case "delivery":
		o.Reliability = via.ReliableDelivery
	case "reception":
		o.Reliability = via.ReliableReception
	default:
		return o, fmt.Errorf("unknown reliability %q", rel)
	}
	return o, nil
}

func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// printProgress is the -progress callback: a live per-cell line on
// stderr as cells complete, in dispatch order.
func printProgress(ev runner.ProgressEvent) {
	status := "ok"
	switch {
	case ev.Skipped:
		status = "skipped"
	case ev.Err != nil:
		status = "FAILED"
	}
	fmt.Fprintf(os.Stderr, "[%d/%d] %-8s %-7s %s\n", ev.Done, ev.Total, ev.Experiment, status, ev.Scenario)
}

// printBench renders each scenario's benchmark tables and notes, stopping
// at the first failed cell.
func printBench(a *pipeline.Artifacts, csv bool) {
	multi := len(a.Scenarios) > 1
	for si, row := range a.Grid {
		if multi {
			fmt.Printf("--- scenario: %s ---\n", a.Scenarios[si].Label())
		}
		c := &row[0]
		if c.Err != nil {
			return
		}
		for _, t := range c.Report.Tables {
			if csv {
				t.RenderCSV(os.Stdout)
			} else {
				t.Render(os.Stdout)
			}
		}
		for _, n := range c.Report.Notes {
			fmt.Println(n)
		}
		if multi {
			fmt.Println()
		}
	}
}

// printSuite prints a one-line status per suite cell in registry order.
func printSuite(a *pipeline.Artifacts) {
	for si, row := range a.Grid {
		if len(a.Scenarios) > 1 {
			fmt.Printf("=== scenario: %s ===\n", a.Scenarios[si].Label())
		}
		for i := range row {
			c := &row[i]
			switch {
			case c.Skipped():
				fmt.Printf("%-8s skipped\n", c.ID)
			case c.Err != nil:
				fmt.Printf("%-8s FAILED: %v\n", c.ID, c.Err)
			default:
				fmt.Printf("%-8s ok  %8.1f ms  %s\n", c.ID, float64(c.Wall.Microseconds())/1000, a.Plan.Experiments[i].Title)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vibe:", err)
	os.Exit(1)
}
