package provider

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"vibe/internal/sim"
)

// mutatedValue returns a valid value for p that differs from cur, so tests
// can flip every parameter and observe the change.
func mutatedValue(t *testing.T, p *Param, cur string) string {
	t.Helper()
	switch p.Kind {
	case KindDuration:
		d, err := ParseDuration(cur)
		if err != nil {
			t.Fatalf("%s: current value %q unparseable: %v", p.Name, cur, err)
		}
		return FormatDuration(d + sim.Duration(1375)) // +1.375us in ns
	case KindInt:
		n, err := strconv.Atoi(cur)
		if err != nil {
			t.Fatalf("%s: current value %q unparseable: %v", p.Name, cur, err)
		}
		if p.Name == "ReliabilityMask" {
			return strconv.Itoa((n + 1) % 8)
		}
		return strconv.Itoa(n + 1)
	case KindBool:
		if cur == "true" {
			return "false"
		}
		return "true"
	case KindFloat:
		f, err := strconv.ParseFloat(cur, 64)
		if err != nil {
			t.Fatalf("%s: current value %q unparseable: %v", p.Name, cur, err)
		}
		return strconv.FormatFloat(f*2+0.125, 'g', -1, 64)
	case KindEnum:
		for _, opt := range strings.Split(p.Unit, "|") {
			if opt != cur {
				return opt
			}
		}
		t.Fatalf("%s: no alternative enum value to %q in %q", p.Name, cur, p.Unit)
	}
	t.Fatalf("%s: unknown kind %v", p.Name, p.Kind)
	return ""
}

// TestParamGetSetRoundTrip sets every parameter to a new value and reads
// it back: the canonical Get form must survive a Set/Get cycle, on every
// built-in model.
func TestParamGetSetRoundTrip(t *testing.T) {
	for _, base := range Extended() {
		m := base.Clone()
		for _, p := range Params() {
			cur := p.Get(m)
			next := mutatedValue(t, p, cur)
			if next == cur {
				t.Fatalf("%s/%s: mutated value %q equals current", base.Name, p.Name, next)
			}
			if err := p.Set(m, next); err != nil {
				t.Fatalf("%s/%s: Set(%q): %v", base.Name, p.Name, next, err)
			}
			got := p.Get(m)
			if err := p.Set(m, got); err != nil {
				t.Fatalf("%s/%s: canonical form %q does not re-parse: %v", base.Name, p.Name, got, err)
			}
			if again := p.Get(m); again != got {
				t.Fatalf("%s/%s: Get/Set unstable: %q -> %q", base.Name, p.Name, got, again)
			}
		}
	}
}

// TestCloneIsDeepCopy is the regression guard for Model.Clone: flipping
// every single overridable parameter on a clone must leave the original
// untouched. If someone adds a reference-typed field (slice, map, pointer)
// to Model and the catalog, this catches the shared state.
func TestCloneIsDeepCopy(t *testing.T) {
	for _, base := range Extended() {
		orig := base.Clone()
		pristine := make(map[string]string, len(Params()))
		for _, p := range Params() {
			pristine[p.Name] = p.Get(orig)
		}
		mutant := orig.Clone()
		for _, p := range Params() {
			next := mutatedValue(t, p, p.Get(mutant))
			if err := p.Set(mutant, next); err != nil {
				t.Fatalf("%s/%s: Set(%q): %v", base.Name, p.Name, next, err)
			}
		}
		for _, p := range Params() {
			if got := p.Get(orig); got != pristine[p.Name] {
				t.Errorf("%s: mutating a clone changed the original's %s: %q -> %q",
					base.Name, p.Name, pristine[p.Name], got)
			}
			if got := p.Get(mutant); got == pristine[p.Name] {
				t.Errorf("%s: clone's %s did not change from %q", base.Name, p.Name, got)
			}
		}
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want sim.Duration
	}{
		{"2us", 2 * sim.Microsecond},
		{"2", 2 * sim.Microsecond}, // bare number = microseconds
		{"350ns", 350 * sim.Nanosecond},
		{"1.5ms", 1500 * sim.Microsecond},
		{"0.0005s", 500 * sim.Microsecond},
		{" 2 us ", 2 * sim.Microsecond},
		{"2US", 2 * sim.Microsecond},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if err != nil {
			t.Errorf("ParseDuration(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseDuration(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "fast", "2kb", "us"} {
		if _, err := ParseDuration(bad); err == nil {
			t.Errorf("ParseDuration(%q) accepted", bad)
		}
	}
}

func TestParamByNameCaseInsensitive(t *testing.T) {
	for _, name := range []string{"DoorbellCost", "doorbellcost", "DOORBELLCOST"} {
		p, err := ParamByName(name)
		if err != nil {
			t.Fatalf("ParamByName(%q): %v", name, err)
		}
		if p.Name != "DoorbellCost" {
			t.Fatalf("ParamByName(%q) = %s", name, p.Name)
		}
	}
	if _, err := ParamByName("NoSuchKnob"); err == nil {
		t.Fatal("unknown parameter accepted")
	}
}

func TestCompileOverrides(t *testing.T) {
	ovs, err := CompileOverrides(map[string]string{
		"WireMTU":      "9000",
		"DoorbellCost": "2us",
		"TLBPolicy":    "lru",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sorted name order, independent of map iteration.
	want := []string{"DoorbellCost", "TLBPolicy", "WireMTU"}
	for i, o := range ovs {
		if o.Param.Name != want[i] {
			t.Fatalf("override %d = %s, want %s", i, o.Param.Name, want[i])
		}
	}
	m := CLAN()
	for _, o := range ovs {
		o.Apply(m)
	}
	if m.WireMTU != 9000 {
		t.Fatalf("WireMTU = %d after override", m.WireMTU)
	}
	if m.DoorbellCost != 2*sim.Microsecond {
		t.Fatalf("DoorbellCost = %v after override", m.DoorbellCost)
	}

	if _, err := CompileOverrides(map[string]string{"NoSuchKnob": "1"}); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := CompileOverrides(map[string]string{"WireMTU": "huge"}); err == nil {
		t.Fatal("bad value accepted")
	}
	if _, err := CompileOverrides(map[string]string{"ReliabilityMask": "9"}); err == nil {
		t.Fatal("out-of-range reliability mask accepted")
	}
}

// TestOverrideApplyIsIdempotent: scenario overrides re-apply to models the
// experiments already tweaked, so applying twice must equal applying once.
func TestOverrideApplyIsIdempotent(t *testing.T) {
	ovs, err := CompileOverrides(map[string]string{"DoorbellCost": "2us", "HostCopies": "true"})
	if err != nil {
		t.Fatal(err)
	}
	once, twice := CLAN(), CLAN()
	for _, o := range ovs {
		o.Apply(once)
	}
	for i := 0; i < 2; i++ {
		for _, o := range ovs {
			o.Apply(twice)
		}
	}
	for _, p := range Params() {
		if p.Get(once) != p.Get(twice) {
			t.Fatalf("%s differs after re-application: %q vs %q", p.Name, p.Get(once), p.Get(twice))
		}
	}
}

// TestParamDomains pins the parameter domains: values that used to crash
// a run (a zero MTU or bandwidth divides by zero, a negative cost
// schedules into the past, a negative TLB capacity sizes a slice) are
// rejected when overrides compile, while the edges of each domain still
// compile.
func TestParamDomains(t *testing.T) {
	bad := map[string][]string{
		"WireMTU":          {"0", "-1"},
		"BandwidthBps":     {"0", "-1", "inf", "NaN", "-inf"},
		"TLBCapacity":      {"-5", "-1"},
		"DoorbellCost":     {"-3us", "-1ns", "inf", "nan", "1e300s"},
		"FrameOverhead":    {"-100", "-1"},
		"AckBytes":         {"-5"},
		"MaxRetries":       {"-1"},
		"NetTopoDegree":    {"-1"},
		"NetSwitchBufPkts": {"-1"},
		"MaxTransferSize":  {"0", "-1"},
		"MaxSegments":      {"0"},
		"DropRate":         {"1.5", "-0.1", "NaN", "inf", "1.0000001"},
	}
	for name, values := range bad {
		for _, v := range values {
			if _, err := CompileOverrides(map[string]string{name: v}); err == nil {
				t.Errorf("%s=%s compiled, want an out-of-domain error", name, v)
			}
		}
	}
	good := map[string][]string{
		"WireMTU":          {"1", "1500"},
		"BandwidthBps":     {"1", "1.25e9"},
		"TLBCapacity":      {"0", "64"},
		"DoorbellCost":     {"0", "0us", "2us"},
		"FrameOverhead":    {"0", "32"},
		"AckBytes":         {"0", "64"},
		"MaxRetries":       {"0", "16"},
		"NetTopoDegree":    {"0", "4"},
		"NetSwitchBufPkts": {"0", "8"},
		"MaxTransferSize":  {"1", "65536"},
		"MaxSegments":      {"1", "252"},
		"DropRate":         {"0", "0.01", "1"},
	}
	for name, values := range good {
		for _, v := range values {
			if _, err := CompileOverrides(map[string]string{name: v}); err != nil {
				t.Errorf("%s=%s rejected: %v", name, v, err)
			}
		}
	}
	// Every duration in the catalog is a cost: all reject negatives and
	// accept zero, and a rejected Set leaves the model untouched.
	for _, p := range Params() {
		if p.Kind != KindDuration {
			continue
		}
		m := CLAN()
		before := p.Get(m)
		if err := p.Set(m, "-1ns"); err == nil {
			t.Errorf("%s accepted a negative cost", p.Name)
		}
		if got := p.Get(m); got != before {
			t.Errorf("%s: rejected Set changed the value %s -> %s", p.Name, before, got)
		}
		if err := p.Set(m, "0"); err != nil {
			t.Errorf("%s rejected zero: %v", p.Name, err)
		}
	}
}

// TestEveryNumericParamHasDomain fails if any int or float entry of the
// catalog accepts an out-of-domain value. Every count, size and capacity
// has a floor of at least zero, and every float is a finite non-negative
// quantity, so these values must fail for each entry, leaving the model
// untouched.
func TestEveryNumericParamHasDomain(t *testing.T) {
	bad := map[Kind][]string{
		KindInt:   {"-1", strconv.Itoa(math.MinInt)},
		KindFloat: {"-1", "NaN", "inf", "-inf"},
	}
	for _, p := range Params() {
		for _, v := range bad[p.Kind] {
			m := CLAN()
			before := p.Get(m)
			if err := p.Set(m, v); err == nil {
				t.Errorf("%s accepted %s", p.Name, v)
			}
			if got := p.Get(m); got != before {
				t.Errorf("%s: rejected Set changed the value %s -> %s", p.Name, before, got)
			}
		}
	}
}
