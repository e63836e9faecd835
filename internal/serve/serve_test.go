package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"vibe/internal/results"
)

// startServer boots a server with its dispatcher and tears both down with
// the test.
func startServer(t *testing.T, opt Options) *Server {
	t.Helper()
	s := New(opt)
	go s.Run()
	t.Cleanup(s.Close)
	return s
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, j *Job) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		_, notify, st := j.snapshotEvents(1 << 30)
		if st == StatusDone || st == StatusFailed {
			return st
		}
		select {
		case <-notify:
		case <-time.After(time.Second):
		}
	}
	t.Fatalf("job %s did not finish", j.ID)
	return ""
}

// TestSubmitValidation checks bad submissions fail at submit time.
func TestSubmitValidation(t *testing.T) {
	s := New(Options{})
	if _, err := s.Submit(Submission{Sweeps: []string{"NotAParam=1,2"}}); err == nil {
		t.Error("bad sweep accepted")
	}
	if _, err := s.Submit(Submission{Experiments: []string{"NOPE"}}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := s.Submit(Submission{Set: map[string]string{"NotAParam": "1"}}); err == nil {
		t.Error("unknown -set parameter accepted")
	}
}

// TestQueueBound checks a full queue rejects rather than blocks: with no
// dispatcher draining, QueueCap+? submissions fail fast with errQueueFull.
func TestQueueBound(t *testing.T) {
	s := New(Options{QueueCap: 2}) // dispatcher NOT started
	sub := Submission{Quick: true, Experiments: []string{"T1"}}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(sub2(sub, fmt.Sprintf("q%d", i))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit(sub2(sub, "overflow")); err != errQueueFull {
		t.Fatalf("overflow submit err = %v, want errQueueFull", err)
	}
	// A rejected submission is not counted and mints no job ID: the
	// submitted counter tracks accepted jobs only and IDs stay dense.
	s.mu.Lock()
	submits, nextID := s.submits, s.nextID
	s.mu.Unlock()
	if submits != 2 || nextID != 2 {
		t.Errorf("after rejection: submits=%d nextID=%d, want 2 and 2", submits, nextID)
	}
}

// TestMetricsScrapeDuringRun hammers the metrics snapshot paths while a
// job executes. Under -race this pins the contract that j.run and its
// collectors are allocated at submit time and never written once the job
// is published.
func TestMetricsScrapeDuringRun(t *testing.T) {
	s := startServer(t, Options{Workers: 2})
	j, err := s.Submit(Submission{Quick: true, Experiments: []string{"XFAILOVER"}, Label: "scrape-race"})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.simSnapshot()
				s.daemonSnapshot()
			}
		}
	}()
	st := waitJob(t, j)
	close(stop)
	wg.Wait()
	if st != StatusDone {
		t.Fatalf("job status = %s (%s)", st, j.Error)
	}
}

// sub2 clones a submission with a distinct label (distinct cache key).
func sub2(s Submission, label string) Submission {
	s.Label = label
	return s
}

// TestJobLifecycleAndCache runs one small job end to end and then
// resubmits it: the replay must be an immediate cache hit whose result
// artifact is byte-identical, holding no collectors (no metric
// double-counting), while a submission with a different label misses.
func TestJobLifecycleAndCache(t *testing.T) {
	s := startServer(t, Options{Workers: 2})
	sub := Submission{Quick: true, Experiments: []string{"T1"}, Label: "lifecycle"}

	j1, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j1); st != StatusDone {
		t.Fatalf("job status = %s (%s)", st, j1.Error)
	}
	res1, ok := j1.artifact("results.json")
	if !ok {
		t.Fatalf("no results.json artifact; have %v", j1.Artifacts)
	}
	if _, ok := j1.artifact("metrics.txt"); !ok {
		t.Error("no metrics.txt artifact")
	}

	// The artifact decodes as a results.Set with the daemon's label and
	// embedded metrics.
	var set results.Set
	if err := json.Unmarshal(res1, &set); err != nil {
		t.Fatalf("results.json: %v", err)
	}
	if set.Label != "lifecycle" || len(set.Experiments) != 1 || set.Experiments[0].ID != "T1" {
		t.Fatalf("set = label %q, %d experiments", set.Label, len(set.Experiments))
	}
	if len(set.Metrics) == 0 {
		t.Error("set has no embedded metrics")
	}

	// Identical resubmission: cache hit, done immediately, same bytes.
	j2, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Cached {
		t.Fatal("identical resubmission was not served from cache")
	}
	if st := waitJob(t, j2); st != StatusDone {
		t.Fatalf("cached job status = %s", st)
	}
	res2, ok := j2.artifact("results.json")
	if !ok || !bytes.Equal(res1, res2) {
		t.Error("cached artifact bytes differ from the original")
	}
	if j2.run != nil {
		t.Error("cached job holds a run and its collectors (would double-count /metrics)")
	}

	// A different label is a different design point for artifact bytes.
	j3, err := s.Submit(sub2(sub, "other"))
	if err != nil {
		t.Fatal(err)
	}
	if j3.Cached {
		t.Error("different label hit the cache")
	}
	waitJob(t, j3)
}

// TestHTTPAPI exercises the full HTTP surface against a real listener:
// submit, list, status, SSE replay, artifact download, Prometheus scrape,
// and error paths.
func TestHTTPAPI(t *testing.T) {
	s := startServer(t, Options{Workers: 2})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// Bad submissions are 400s; bad routes 404.
	resp, err := http.Post(hs.URL+"/api/jobs", "application/json",
		strings.NewReader(`{"experiments": ["NOPE"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad submission -> %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/api/jobs/job-99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job -> %d, want 404", resp.StatusCode)
	}

	// Submit a small quick job. XFAILOVER runs the routed fabric, whose
	// sampled message spans feed the span.* histogram families /metrics
	// must expose.
	resp, err = http.Post(hs.URL+"/api/jobs", "application/json",
		strings.NewReader(`{"quick": true, "experiments": ["XFAILOVER"], "label": "http"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit -> %d, want 202", resp.StatusCode)
	}
	var job struct {
		ID    string `json:"id"`
		Cells int    `json:"cells"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if job.ID == "" || job.Cells != 1 {
		t.Fatalf("job = %+v", job)
	}

	// SSE: read frames until the done event; history replays from the
	// start, so queued and started must appear even if we subscribe late.
	types := sseTypes(t, hs.URL+"/api/jobs/"+job.ID+"/events")
	for _, want := range []string{"queued", "started", "cell", "done"} {
		if !types[want] {
			t.Errorf("SSE stream missing %q event; got %v", want, types)
		}
	}

	// Status and listing.
	var st struct {
		Status JobStatus `json:"status"`
	}
	getJSON(t, hs.URL+"/api/jobs/"+job.ID, &st)
	if st.Status != StatusDone {
		t.Fatalf("status = %s", st.Status)
	}
	var list struct {
		Jobs []struct{ ID string } `json:"jobs"`
	}
	getJSON(t, hs.URL+"/api/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != job.ID {
		t.Fatalf("list = %+v", list)
	}

	// Artifact download.
	resp, err = http.Get(hs.URL + "/api/jobs/" + job.ID + "/artifacts/results.json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("artifact -> %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var set results.Set
	if err := json.Unmarshal(body, &set); err != nil {
		t.Fatalf("downloaded set: %v", err)
	}

	// Prometheus scrape: daemon gauges and at least one simulation family.
	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE vibed_jobs_submitted counter",
		"# TYPE vibed_jobs_running gauge",
		"# TYPE vibed_queue_capacity gauge",
		"vibed_pool_workers 2",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// At least one span.* histogram family from the simulation metrics
	// (XFAILOVER's RDMA path feeds span.rdma_write.*).
	if !regexp.MustCompile(`(?m)^# TYPE vibe_span_\w+_ns histogram$`).Match(prom) {
		t.Error("/metrics has no span histogram family")
	}
	if !regexp.MustCompile(`(?m)^vibe_span_\w+_ns_bucket\{le="\+Inf"\} \d+$`).Match(prom) {
		t.Error("/metrics span histogram has no +Inf bucket")
	}

	if resp, err = http.Get(hs.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz -> %d", resp.StatusCode)
	}
}

// sseTypes subscribes to an SSE stream and returns the set of event types
// seen before the stream closes (which it does once the job is terminal).
func sseTypes(t *testing.T, url string) map[string]bool {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	types := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			types[ev] = true
		} else if data, ok := strings.CutPrefix(line, "data: "); ok {
			var e Event
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				t.Fatalf("bad SSE data frame %q: %v", data, err)
			}
		}
	}
	return types
}

func getJSON(t *testing.T, url string, v interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s -> %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestTraceAndProfileArtifacts checks the instrumented submission path: a
// job asking for trace and profile produces both artifacts, and the trace
// is a valid Chrome document.
func TestTraceAndProfileArtifacts(t *testing.T) {
	s := startServer(t, Options{Workers: 2})
	j, err := s.Submit(Submission{
		Quick: true, Experiments: []string{"XFAILOVER"},
		Label: "instr", Trace: true, Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st != StatusDone {
		t.Fatalf("job failed: %s", j.Error)
	}
	tr, ok := j.artifact("trace.json")
	if !ok {
		t.Fatal("no trace.json artifact")
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace.json invalid (%v) or empty", err)
	}
	if p, ok := j.artifact("profile.folded"); !ok || len(p) == 0 {
		t.Fatal("no profile.folded artifact")
	}
}

// TestOutOfDomainSetRejected: a -set value outside the parameter's domain
// (a zero wire MTU used to divide by zero inside the simulation and kill
// the daemon) is a 400 at submission, and the daemon keeps serving.
func TestOutOfDomainSetRejected(t *testing.T) {
	s := startServer(t, Options{})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	for _, body := range []string{
		`{"quick": true, "experiments": ["F3"], "set": {"WireMTU": "0"}}`,
		`{"quick": true, "experiments": ["F3"], "set": {"BandwidthBps": "-1"}}`,
		`{"quick": true, "experiments": ["F3"], "set": {"DoorbellCost": "-3us"}}`,
		// Once accepted: this one scheduled an event in the past and
		// killed the daemon.
		`{"quick": true, "experiments": ["F3"], "set": {"FrameOverhead": "-100"}}`,
		`{"quick": true, "experiments": ["F3"], "set": {"AckBytes": "-5"}}`,
		`{"quick": true, "experiments": ["F3"], "set": {"MaxRetries": "-1"}}`,
		`{"quick": true, "experiments": ["F3"], "set": {"NetSwitchBufPkts": "-1"}}`,
		`{"quick": true, "experiments": ["F3"], "set": {"DropRate": "1.5"}}`,
	} {
		resp, err := http.Post(hs.URL+"/api/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s -> %d, want 400", body, resp.StatusCode)
		}
		if !strings.Contains(string(msg), "range") {
			t.Errorf("%s -> %q, want the domain error", body, msg)
		}
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after rejected submissions -> %d", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/api/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job list after rejected submissions -> %d", resp.StatusCode)
	}
}
