// Package pipeline is the one owner of VIBe's run chain: scenario spec →
// sweep grid → compiled scenarios → instrumentation → runner.RunGrid →
// result sets and artifacts. The vibe and vibe-report CLIs and the vibed
// service are thin frontends over it: they parse flags or HTTP bodies
// into a Plan and render the Artifacts. Because every frontend assembles
// and encodes results here, a set downloaded from vibed is byte-identical
// to the `vibe-report -json -metrics` file for the same plan.
package pipeline

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"vibe/internal/core"
	"vibe/internal/fault"
	"vibe/internal/metrics"
	"vibe/internal/prof"
	"vibe/internal/provider"
	"vibe/internal/results"
	"vibe/internal/runner"
	"vibe/internal/trace"
)

// traceLimit caps a run's Chrome trace at about a million events.
const traceLimit = 1 << 20

// Spec assembles the scenario spec from a scenario file, -set style
// overrides and a fault plan file; each may be empty. The -set entries and
// the fault plan win over the file's.
func Spec(scenarioPath string, sets []string, faultPath string) (core.ScenarioSpec, error) {
	var spec core.ScenarioSpec
	if scenarioPath != "" {
		s, err := core.LoadScenarioSpec(scenarioPath)
		if err != nil {
			return spec, err
		}
		spec = s
	}
	spec, err := Override(spec, sets)
	if err != nil {
		return spec, err
	}
	if faultPath != "" {
		p, err := fault.Load(faultPath)
		if err != nil {
			return spec, err
		}
		spec.Fault = p
	}
	return spec, nil
}

// Override validates -set style name=value pairs and applies them over
// spec's overrides, later pairs winning. The caller's Set map is not
// modified.
func Override(spec core.ScenarioSpec, sets []string) (core.ScenarioSpec, error) {
	if len(sets) == 0 {
		return spec, nil
	}
	kv, err := provider.ParseSet(sets)
	if err != nil {
		return spec, err
	}
	merged := make(map[string]string, len(spec.Set)+len(kv))
	for k, v := range spec.Set {
		merged[k] = v
	}
	for k, v := range kv {
		merged[k] = v
	}
	spec.Set = merged
	return spec, nil
}

// Select resolves experiment IDs, case-insensitively, in the given order;
// no IDs selects the whole registry.
func Select(ids []string) ([]*core.Experiment, error) {
	if len(ids) == 0 {
		return core.Experiments(), nil
	}
	exps := make([]*core.Experiment, len(ids))
	for i, id := range ids {
		e, err := core.ExperimentByID(strings.ToUpper(id))
		if err != nil {
			return nil, err
		}
		exps[i] = e
	}
	return exps, nil
}

// Plan is one run's inputs, in the vocabulary the CLI flags and vibed
// submissions share.
type Plan struct {
	Spec        core.ScenarioSpec
	Sweeps      []string // -sweep axes; the cells form a grid
	Experiments []*core.Experiment
	Quick       bool
	Label       string // recorded in every result set

	Metrics    bool // collect per-scenario counters and embed them in the sets
	Trace      bool // record a Chrome trace; forces one worker
	Profile    bool // attribute virtual time per experiment
	SpanSample int  // with Metrics or Trace, record every Nth message's span
	Workers    int  // runner pool width (<= 0: NumCPU)
}

// Run is a compiled plan, ready to execute.
type Run struct {
	Plan      Plan
	Scenarios []*core.Scenario // one per sweep cell

	// Collectors holds one metrics collector per scenario when
	// Plan.Metrics is set (nil entries otherwise). They exist from Compile
	// on and are never replaced, so readers may merge them while the run
	// executes.
	Collectors []*metrics.Collector
}

// Compile expands the plan's sweeps and compiles every cell's scenario,
// so a bad spec fails here, before anything is simulated.
func Compile(p Plan) (*Run, error) {
	specs, err := core.ExpandSweeps(p.Spec, p.Sweeps)
	if err != nil {
		return nil, err
	}
	scs, err := core.CompileScenarios(specs, p.Quick)
	if err != nil {
		return nil, err
	}
	r := &Run{Plan: p, Scenarios: scs, Collectors: make([]*metrics.Collector, len(scs))}
	if p.Metrics {
		for i := range r.Collectors {
			r.Collectors[i] = metrics.NewCollector()
		}
	}
	return r, nil
}

// Cells is the number of (experiment, scenario) cells the run executes.
func (r *Run) Cells() int { return len(r.Plan.Experiments) * len(r.Scenarios) }

// Artifacts is everything one executed run produced.
type Artifacts struct {
	*Run
	Grid    [][]runner.Result // grid[scenario][experiment]
	Sets    []*results.Set    // one per scenario; nil if a cell failed
	Trace   *trace.Recorder   // nil unless Plan.Trace
	Profile *prof.Profile     // nil unless Plan.Profile
}

// Execute instruments the scenarios, runs the grid on the runner pool and
// assembles one result set per scenario. progress, if non-nil, receives
// the runner's per-cell events. The artifacts are returned even when a
// cell fails, so frontends can still report the grid and write the
// instrumentation; the error is then the first cell error and Sets is
// nil.
func (r *Run) Execute(progress func(runner.ProgressEvent)) (*Artifacts, error) {
	a := &Artifacts{Run: r}
	workers := r.Plan.Workers
	if r.Plan.Trace {
		// The recorder is single-writer, so tracing pins one worker.
		a.Trace = &trace.Recorder{Limit: traceLimit}
		workers = 1
	}
	if r.Plan.Metrics || r.Plan.Trace {
		for i, sc := range r.Scenarios {
			sc.Instr = &core.Instr{Metrics: r.Collectors[i], Trace: a.Trace, SpanSample: r.Plan.SpanSample}
		}
	}
	exps := r.Plan.Experiments
	if r.Plan.Profile {
		// The profile is shared across workers; ProfiledExperiments
		// scopes each experiment's attribution under its ID.
		a.Profile = prof.New()
		exps = core.ProfiledExperiments(exps, a.Profile)
	}

	a.Grid = runner.RunGrid(exps, r.Scenarios, runner.Options{Workers: workers, Progress: progress})
	if err := runner.FirstGridError(a.Grid); err != nil {
		return a, err
	}
	a.Sets = make([]*results.Set, len(r.Scenarios))
	for si, sc := range r.Scenarios {
		set := &results.Set{Label: r.Plan.Label, Scenario: results.ProvenanceOf(sc)}
		if c := r.Collectors[si]; c != nil {
			set.Metrics = c.Snapshot().Map()
		}
		for ei, e := range r.Plan.Experiments {
			set.Experiments = append(set.Experiments, results.FromReport(e.ID, a.Grid[si][ei].Report))
		}
		a.Sets[si] = set
	}
	return a, nil
}

// WriteMetrics renders scenario si's counters under a
// "--- metrics: <scenario> (<n> simulated systems) ---" header. It writes
// nothing when metrics were not collected.
func (a *Artifacts) WriteMetrics(w io.Writer, si int) {
	c := a.Collectors[si]
	if c == nil {
		return
	}
	fmt.Fprintf(w, "--- metrics: %s (%d simulated systems) ---\n", a.Scenarios[si].Label(), c.Systems())
	c.Snapshot().Render(w)
}

// SaveMetrics writes the cross-scenario merged snapshot as key-sorted
// JSON, SaveTrace the Chrome trace and SaveProfile the folded-stack
// profile. Each reports the file it wrote on out, and writes nothing for
// an empty path or for instrumentation the plan did not enable.
func (a *Artifacts) SaveMetrics(out io.Writer, path string) error {
	if path == "" {
		return nil
	}
	return save(out, path, metrics.MergedSnapshot(a.Collectors...).WriteJSON, "metrics written to %s\n", path)
}

func (a *Artifacts) SaveTrace(out io.Writer, path string) error {
	if path == "" || a.Trace == nil {
		return nil
	}
	return save(out, path, a.Trace.WriteChrome, "trace written to %s (%d events, %d dropped)\n",
		path, a.Trace.Len(), a.Trace.Dropped())
}

func (a *Artifacts) SaveProfile(out io.Writer, path string) error {
	if path == "" || a.Profile == nil {
		return nil
	}
	return save(out, path, a.Profile.WriteFolded, "profile written to %s (%d stacks)\n", path, a.Profile.Len())
}

// CellName derives the name of sweep cell i of n from a single-scenario
// name: out.json stays out.json for one cell and becomes out.cell0.json,
// out.cell1.json, ... for a grid.
func CellName(name string, i, n int) string {
	if n == 1 {
		return name
	}
	ext := filepath.Ext(name)
	return fmt.Sprintf("%s.cell%d%s", strings.TrimSuffix(name, ext), i, ext)
}

// save creates path, fills it with write and, once it is closed, reports
// it on out.
func save(out io.Writer, path string, write func(io.Writer) error, format string, args ...any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, format, args...)
	return err
}
