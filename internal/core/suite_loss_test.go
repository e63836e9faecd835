package core

import "testing"

// XLOSS pins its run shape (warmup, message count) precisely so that
// quick mode stays comparable to a full run: both sweeps share the
// zero-loss anchor point, which must agree byte-for-byte.
func TestXLOSSQuickAndFullAgreeAtZeroLoss(t *testing.T) {
	e := ExperimentMust(t, "XLOSS")
	quick, err := e.Run(DefaultScenario(true))
	if err != nil {
		t.Fatal(err)
	}
	full, err := e.Run(DefaultScenario(false))
	if err != nil {
		t.Fatal(err)
	}
	qg, fg := quick.Groups[0], full.Groups[0]
	if len(qg.Series) != len(fg.Series) {
		t.Fatalf("series count: quick %d, full %d", len(qg.Series), len(fg.Series))
	}
	for i, qs := range qg.Series {
		fs := fg.Series[i]
		if qs.Name != fs.Name {
			t.Fatalf("series %d name: quick %q, full %q", i, qs.Name, fs.Name)
		}
		qy, qok := qs.At(0)
		fy, fok := fs.At(0)
		if !qok || !fok {
			t.Fatalf("%s: missing zero-loss point (quick %v, full %v)", qs.Name, qok, fok)
		}
		if qy != fy {
			t.Errorf("%s: zero-loss bandwidth differs: quick %v, full %v", qs.Name, qy, fy)
		}
	}
}

// Connection-management packets cross the same lossy fabric as data, so
// at some run seeds the DropRate coin takes a connect request or its
// accept. The handshake must retry through that loss rather than time
// out; these seeds each lost one at some point of the full sweep.
func TestXLOSSSurvivesHandshakeLoss(t *testing.T) {
	e := ExperimentMust(t, "XLOSS")
	for _, seed := range []int64{9, 11, 18} {
		sc, err := NewScenario(ScenarioSpec{Run: RunOverrides{Seed: seed}}, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(sc); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
