package pipeline_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"vibe/internal/pipeline"
)

// traceGolden pins the traced quick registry's exported trace: the
// SHA-256 and length of the Chrome JSON and of the Dump text. Every span
// is sampled, so the record covers all trace sites: NIC doorbells and
// receives, link transmits and receives, switch forwards and message
// spans.
const traceGolden = "testdata/quick-trace.digest"

// TestQuickTraceDigest runs the quick registry traced through
// pipeline.Execute and requires the exported trace to be byte-identical
// to the committed digest. After an intended change to what the simulator
// traces, replace the golden with the digest the failure prints.
func TestQuickTraceDigest(t *testing.T) {
	exps, err := pipeline.Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	run, err := pipeline.Compile(pipeline.Plan{Experiments: exps, Quick: true, Trace: true, SpanSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := run.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	var chrome, dump bytes.Buffer
	if err := a.Trace.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	a.Trace.Dump(&dump)
	got := fmt.Sprintf("events %d dropped %d\nchrome %s %d\ndump %s %d\n",
		a.Trace.Len(), a.Trace.Dropped(),
		digest(chrome.Bytes()), chrome.Len(), digest(dump.Bytes()), dump.Len())

	want, err := os.ReadFile(traceGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("traced quick registry changed; got\n%swant\n%s", got, want)
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
