package eval

import (
	"math/rand"
	"strings"
	"testing"

	"logscape/internal/core/l2"
	"logscape/internal/logmodel"
	"logscape/internal/sessions"
)

func newDetRand() *rand.Rand { return rand.New(rand.NewSource(42)) }

func TestTimeoutLabel(t *testing.T) {
	if got := timeoutLabel(l2.NoTimeout); got != "inf" {
		t.Errorf("inf label = %q", got)
	}
	if got := timeoutLabel(1500); got != "1.5s" {
		t.Errorf("1.5s label = %q", got)
	}
	if got := timeoutLabel(300); got != "0.3s" {
		t.Errorf("0.3s label = %q", got)
	}
}

func TestScaleBar(t *testing.T) {
	if scaleBar(-1) != 0 {
		t.Error("negative")
	}
	if scaleBar(0) != 0 {
		t.Error("zero")
	}
	if scaleBar(3) != 1 {
		t.Errorf("3 → %d", scaleBar(3))
	}
	if scaleBar(1000) != scaleBar(150) {
		t.Error("cap")
	}
	if scaleBar(150) > 60 {
		t.Errorf("bar too long: %d", scaleBar(150))
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline([]int{0, 0, 0}); got != "   " {
		t.Errorf("flat = %q", got)
	}
	got := sparkline([]int{0, 5, 10})
	if len([]rune(got)) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0] != ' ' {
		t.Errorf("zero glyph = %q", got[0])
	}
	if got[2] != '@' {
		t.Errorf("max glyph = %q", got[2])
	}
}

func TestPerDayResultString(t *testing.T) {
	r := PerDayResult{Technique: "LX", Days: []DayDecisions{
		{Day: 0, TP: 10, FP: 2},
		{Day: 1, TP: 0, FP: 0, Weekend: true},
	}}
	s := r.String()
	if !strings.Contains(s, "LX") || !strings.Contains(s, "10") {
		t.Errorf("render = %q", s)
	}
}

func TestClipSessions(t *testing.T) {
	mk := func(ts ...logmodel.Millis) sessions.Session {
		var es []logmodel.Entry
		for _, x := range ts {
			es = append(es, logmodel.Entry{Time: x, Source: "S"})
		}
		return sessions.Session{User: "u", Entries: es}
	}
	ss := []sessions.Session{
		mk(10, 20, 30, 40),
		mk(5, 50),    // only one entry inside → dropped
		mk(100, 110), // fully outside → dropped
	}
	hr := logmodel.TimeRange{Start: 15, End: 45}
	out := clipSessions(ss, hr)
	if len(out) != 1 {
		t.Fatalf("clipped = %d sessions", len(out))
	}
	if out[0].Len() != 3 || out[0].Entries[0].Time != 20 {
		t.Errorf("clip = %+v", out[0].Entries)
	}
}

func TestDefaultTimeoutSweep(t *testing.T) {
	sweep := DefaultTimeoutSweep()
	if sweep[len(sweep)-1] != l2.NoTimeout {
		t.Error("sweep must end with infinity")
	}
	for i := 1; i < len(sweep)-1; i++ {
		if sweep[i] <= sweep[i-1] {
			t.Error("finite timeouts must be increasing")
		}
	}
}

func TestSampleUnrelatedPairs(t *testing.T) {
	r := testRunner(t)
	rng := newDetRand()
	pairs := r.sampleUnrelatedPairs(rng, 50)
	if len(pairs) != 50 {
		t.Fatalf("sampled %d", len(pairs))
	}
	for _, p := range pairs {
		if r.TruePairs[p] {
			t.Fatalf("sampled true pair %v", p)
		}
		if p.A == p.B {
			t.Fatalf("self pair %v", p)
		}
	}
}
