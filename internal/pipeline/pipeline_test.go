package pipeline_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vibe/internal/core"
	"vibe/internal/pipeline"
	"vibe/internal/results"
	"vibe/internal/serve"
)

// TestServeMatchesCLIBytes pins the frontend equivalence: one quick plan
// over T1 and XFAILOVER with metrics, saved the way `vibe-report -json
// -metrics` saves it, is byte-identical to the results.json a vibed job
// for the same submission serves.
func TestServeMatchesCLIBytes(t *testing.T) {
	ids := []string{"T1", "XFAILOVER"}
	const label = "equiv"

	exps, err := pipeline.Select(ids)
	if err != nil {
		t.Fatal(err)
	}
	run, err := pipeline.Compile(pipeline.Plan{
		Experiments: exps, Quick: true, Label: label,
		Metrics: true, SpanSample: 1, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := run.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := results.Save(path, a.Sets[0]); err != nil {
		t.Fatal(err)
	}
	cli, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	srv := serve.New(serve.Options{Workers: 2})
	go srv.Run()
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	body, _ := json.Marshal(serve.Submission{Experiments: ids, Quick: true, Label: label})
	resp, err := http.Post(hs.URL+"/api/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit -> %d (%v)", resp.StatusCode, err)
	}
	// The event stream closes once the job is terminal.
	events := get(t, hs.URL+"/api/jobs/"+job.ID+"/events")
	if !strings.Contains(string(events), "event: done") {
		t.Fatalf("job did not finish: %s", events)
	}
	served := get(t, hs.URL+"/api/jobs/"+job.ID+"/artifacts/results.json")
	if !bytes.Equal(cli, served) {
		t.Fatalf("vibed results.json (%d bytes) differs from the CLI file (%d bytes)", len(served), len(cli))
	}
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s -> %d (%v)", url, resp.StatusCode, err)
	}
	return data
}

// TestSpecPrecedence checks that -set keys and the -fault plan win over
// the scenario file's, while the file's other keys survive.
func TestSpecPrecedence(t *testing.T) {
	dir := t.TempDir()
	write := func(name, data string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	scenario := write("scenario.json", `{"base": "mvia",
		"set": {"DoorbellCost": "2us", "TLBCapacity": "64"},
		"fault": {"seed": 1, "faults": [{"kind": "drop-nth", "nth": 40}]}}`)
	plan := write("fault.json", `{"seed": 9, "faults": [{"kind": "drop-nth", "nth": 7}]}`)

	for _, tc := range []struct {
		name     string
		path     string
		sets     []string
		fault    string
		wantSet  map[string]string
		wantSeed int64
		wantErr  bool
	}{
		{"file only", scenario, nil, "",
			map[string]string{"DoorbellCost": "2us", "TLBCapacity": "64"}, 1, false},
		{"set wins", scenario, []string{"TLBCapacity=8"}, "",
			map[string]string{"DoorbellCost": "2us", "TLBCapacity": "8"}, 1, false},
		{"later set wins", scenario, []string{"TLBCapacity=8", "TLBCapacity=16"}, "",
			map[string]string{"DoorbellCost": "2us", "TLBCapacity": "16"}, 1, false},
		{"fault wins", scenario, nil, plan,
			map[string]string{"DoorbellCost": "2us", "TLBCapacity": "64"}, 9, false},
		{"no file", "", []string{"DoorbellCost=3us"}, plan,
			map[string]string{"DoorbellCost": "3us"}, 9, false},
		{"unknown parameter", scenario, []string{"NotAParam=1"}, "", nil, 0, true},
		{"missing fault file", scenario, nil, filepath.Join(dir, "none.json"), nil, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := pipeline.Spec(tc.path, tc.sets, tc.fault)
			if tc.wantErr {
				if err == nil {
					t.Fatal("accepted")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(spec.Set, tc.wantSet) {
				t.Errorf("set = %v, want %v", spec.Set, tc.wantSet)
			}
			if spec.Fault == nil || spec.Fault.Seed != tc.wantSeed {
				t.Errorf("fault = %+v, want seed %d", spec.Fault, tc.wantSeed)
			}
			if tc.path != "" && spec.Base != "mvia" {
				t.Errorf("base = %q, want the file's mvia", spec.Base)
			}
		})
	}
}

// TestOverrideLeavesCallerSpec checks Override merges into a copy: the
// caller's Set map is not modified.
func TestOverrideLeavesCallerSpec(t *testing.T) {
	var spec core.ScenarioSpec
	spec.Set = map[string]string{"DoorbellCost": "2us"}
	out, err := pipeline.Override(spec, []string{"DoorbellCost=5us"})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Set["DoorbellCost"] != "2us" || out.Set["DoorbellCost"] != "5us" {
		t.Fatalf("caller %v, result %v", spec.Set, out.Set)
	}
}

// TestSelect checks IDs are matched case-insensitively in the given
// order, an empty list means the registry, and unknown IDs are rejected.
func TestSelect(t *testing.T) {
	exps, err := pipeline.Select([]string{"xfailover", "t1", "F3"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range exps {
		got = append(got, e.ID)
	}
	if want := []string{"XFAILOVER", "T1", "F3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Select = %v, want %v", got, want)
	}
	all, err := pipeline.Select(nil)
	if err != nil || len(all) != len(core.Experiments()) {
		t.Errorf("Select(nil) = %d experiments (%v), want the registry", len(all), err)
	}
	for _, ids := range [][]string{{"NOPE"}, {"T1", "bogus"}, {""}} {
		if _, err := pipeline.Select(ids); err == nil {
			t.Errorf("Select(%q) accepted", ids)
		}
	}
}

// TestCellName pins the per-cell output naming shared by -json files and
// vibed artifacts.
func TestCellName(t *testing.T) {
	for _, tc := range []struct {
		name string
		i, n int
		want string
	}{
		{"out.json", 0, 1, "out.json"},
		{"out.json", 0, 3, "out.cell0.json"},
		{"out.json", 2, 3, "out.cell2.json"},
		{"results.json", 1, 2, "results.cell1.json"},
		{"dir.v1/out", 1, 2, "dir.v1/out.cell1"},
	} {
		if got := pipeline.CellName(tc.name, tc.i, tc.n); got != tc.want {
			t.Errorf("CellName(%q, %d, %d) = %q, want %q", tc.name, tc.i, tc.n, got, tc.want)
		}
	}
}

// TestExecuteReportsCellFailure checks a failing cell surfaces as
// Execute's error while the grid is still returned for rendering.
func TestExecuteReportsCellFailure(t *testing.T) {
	boom := &core.Experiment{ID: "BOOM", Run: func(*core.Scenario) (*core.Report, error) {
		panic("boom")
	}}
	run, err := pipeline.Compile(pipeline.Plan{Experiments: []*core.Experiment{boom}, Quick: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := run.Execute(nil)
	if err == nil || a == nil || len(a.Grid) != 1 || a.Sets != nil {
		t.Fatalf("err = %v, artifacts = %+v", err, a)
	}
}
