package drift

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"logscape/internal/logmodel"
	"logscape/internal/obs"
)

// ob builds an observation for sequential bucket b.
func ob(b int64, active ...string) Observation {
	return Observation{Bucket: b, At: logmodel.Millis(b) * logmodel.MillisPerHour, Active: active}
}

func kinds(cps []ChangePoint) []string {
	var out []string
	for _, c := range cps {
		out = append(out, string(c.Kind)+" "+c.Key)
	}
	return out
}

func TestWarmStartIsSilent(t *testing.T) {
	d := NewDetector(Config{K: 3})
	for b := int64(0); b < 10; b++ {
		if cps := d.Observe(ob(b, "A--B", "C--D")); len(cps) != 0 {
			t.Fatalf("bucket %d: unexpected alerts %v for keys present from the start", b, kinds(cps))
		}
	}
}

func TestBirthNeedsKConsecutiveBuckets(t *testing.T) {
	d := NewDetector(Config{K: 3})
	d.Observe(ob(0, "A--B")) // warm-start key keeps the detector honest
	// Brand-new key: birth on the Kth consecutive bucket, not before.
	d.Observe(ob(1, "A--B", "N--P"))
	if cps := d.Observe(ob(2, "A--B", "N--P")); len(cps) != 0 {
		t.Fatalf("2-bucket run alerted early: %v", kinds(cps))
	}
	cps := d.Observe(ob(3, "A--B", "N--P"))
	if len(cps) != 1 || cps[0].Kind != Birth || cps[0].Key != "N--P" {
		t.Fatalf("want birth of N--P, got %v", kinds(cps))
	}
	if cps[0].Onset != 1 {
		t.Fatalf("birth onset = %d, want 1 (start of the confirming run)", cps[0].Onset)
	}
}

func TestFlickeringKeyConfirmsSilently(t *testing.T) {
	d := NewDetector(Config{K: 3})
	d.Observe(ob(0, "A--B"))
	// A sporadic key whose first run breaks before confirming: when it
	// finally strings K buckets together, that is the detector catching up
	// with an old, intermittent dependency — not the landscape moving.
	d.Observe(ob(1, "A--B", "N--P"))
	d.Observe(ob(2, "A--B", "N--P"))
	d.Observe(ob(3, "A--B")) // run broken: N--P flickered unconfirmed
	d.Observe(ob(4, "A--B", "N--P"))
	d.Observe(ob(5, "A--B", "N--P"))
	if cps := d.Observe(ob(6, "A--B", "N--P")); len(cps) != 0 {
		t.Fatalf("flickering key's first confirmation alerted: %v", kinds(cps))
	}
	// A steady stretch raises its presence rate into fast-death territory.
	for b := int64(7); b <= 20; b++ {
		if cps := d.Observe(ob(b, "A--B", "N--P")); len(cps) != 0 {
			t.Fatalf("bucket %d: steady presence alerted: %v", b, kinds(cps))
		}
	}
	// Once confirmed it is a real dependency: its death is announced...
	var death []ChangePoint
	for b := int64(21); b < 28 && len(death) == 0; b++ {
		death = d.Observe(ob(b, "A--B"))
	}
	if len(death) != 1 || death[0].Kind != Death || death[0].Key != "N--P" {
		t.Fatalf("want death of N--P, got %v", kinds(death))
	}
	// ...and so is its rebirth: ever-confirmed keys always alert.
	var rebirth []ChangePoint
	for b := int64(28); b < 32 && len(rebirth) == 0; b++ {
		rebirth = d.Observe(ob(b, "A--B", "N--P"))
	}
	if len(rebirth) != 1 || rebirth[0].Kind != Birth || rebirth[0].Key != "N--P" {
		t.Fatalf("want rebirth of N--P, got %v", kinds(rebirth))
	}
}

func TestDeathNeedsKConsecutiveAbsences(t *testing.T) {
	// DeathAlpha 1e-3 puts the rate-adaptive threshold for a fully dense
	// key at exactly K, isolating the persistence-filter behaviour.
	// RefBuckets 2 keeps the young-key guard (2·RefBuckets observations
	// before the fast death path opens) below the five buckets fed here.
	d := NewDetector(Config{K: 3, RefBuckets: 2, DeathAlpha: 1e-3})
	for b := int64(0); b < 5; b++ {
		d.Observe(ob(b, "A--B"))
	}
	// Key vanishes: death on the 3rd consecutive absence.
	if cps := d.Observe(ob(5)); len(cps) != 0 {
		t.Fatalf("1 absence alerted: %v", kinds(cps))
	}
	if cps := d.Observe(ob(6)); len(cps) != 0 {
		t.Fatalf("2 absences alerted: %v", kinds(cps))
	}
	cps := d.Observe(ob(7))
	if len(cps) != 1 || cps[0].Kind != Death || cps[0].Key != "A--B" {
		t.Fatalf("want death of A--B, got %v", kinds(cps))
	}
	if cps[0].Onset != 5 {
		t.Fatalf("death onset = %d, want 5", cps[0].Onset)
	}
	// Rebirth after the outage ends is announced.
	d.Observe(ob(8, "A--B"))
	d.Observe(ob(9, "A--B"))
	cps = d.Observe(ob(10, "A--B"))
	if len(cps) != 1 || cps[0].Kind != Birth {
		t.Fatalf("want rebirth, got %v", kinds(cps))
	}
}

func TestSparseKeysNeedLongerSilence(t *testing.T) {
	d := NewDetector(Config{K: 3, RefBuckets: 12})
	// Dense key, confirmed at warm start, with occasional one-bucket gaps:
	// present everywhere except buckets 12 and 16. The gaps dent its
	// smoothed presence rate, which stretches the death threshold past K.
	for b := int64(0); b < 18; b++ {
		var cps []ChangePoint
		if b == 12 || b == 16 {
			cps = d.Observe(ob(b))
		} else {
			cps = d.Observe(ob(b, "A--B"))
		}
		if len(cps) != 0 {
			t.Fatalf("bucket %d: occasional gap alerted: %v", b, kinds(cps))
		}
	}
	// When it truly vanishes, death waits for an absence run implausible
	// at the dented rate — 6 buckets here, not the dense-key K=3.
	for b := int64(18); b < 23; b++ {
		if cps := d.Observe(ob(b)); len(cps) != 0 {
			t.Fatalf("bucket %d: death before the rate-adaptive threshold: %v", b, kinds(cps))
		}
	}
	cps := d.Observe(ob(23))
	if len(cps) != 1 || cps[0].Kind != Death {
		t.Fatalf("want death after rate-adaptive threshold, got %v", kinds(cps))
	}
}

func TestOneOffKeyNeverAlerts(t *testing.T) {
	d := NewDetector(Config{K: 3, RefBuckets: 4})
	d.Observe(ob(0, "A--B"))
	for b := int64(1); b < 30; b++ {
		var cps []ChangePoint
		if b == 5 || b == 17 {
			cps = d.Observe(ob(b, "A--B", "ONE--OFF"))
		} else {
			cps = d.Observe(ob(b, "A--B"))
		}
		if len(cps) != 0 {
			t.Fatalf("bucket %d: one-off citation alerted: %v", b, kinds(cps))
		}
	}
}

func TestScoreShiftCUSUM(t *testing.T) {
	d := NewDetector(Config{K: 3, RefBuckets: 8, CUSUMThreshold: 5})
	score := func(b int64, x float64) []ChangePoint {
		return d.Observe(Observation{
			Bucket: b, At: logmodel.Millis(b) * logmodel.MillisPerHour,
			Active: []string{"A--B"},
			Scores: map[string]float64{"A--B": x},
		})
	}
	// Stable regime with mild jitter: no alarms.
	vals := []float64{10, 11, 9, 10, 10.5, 9.5, 10, 11, 9, 10, 10, 9.8, 10.2, 10}
	b := int64(0)
	for _, x := range vals {
		if cps := score(b, x); len(cps) != 0 {
			t.Fatalf("stable scores alerted: %v", kinds(cps))
		}
		b++
	}
	// Step change: the G² score triples and stays there.
	var fired *ChangePoint
	for i := 0; i < 8 && fired == nil; i++ {
		cps := score(b, 30)
		b++
		if len(cps) == 1 {
			fired = &cps[0]
		}
	}
	if fired == nil {
		t.Fatal("sustained score step never tripped the CUSUM")
	}
	if fired.Kind != ScoreShift || fired.Key != "A--B" {
		t.Fatalf("want score-shift of A--B, got %v", *fired)
	}
	// And having re-learned the new regime, it stays quiet.
	for i := 0; i < 12; i++ {
		if cps := score(b, 30); len(cps) != 0 {
			t.Fatalf("post-alarm steady state alerted again: %v", kinds(cps))
		}
		b++
	}
}

func TestDelayShiftKS(t *testing.T) {
	d := NewDetector(Config{K: 3, RefBuckets: 8, KSAlpha: 0.01, MinDelaySamples: 8})
	rng := rand.New(rand.NewSource(7))
	sample := func(center float64) []float64 {
		xs := make([]float64, 12)
		for i := range xs {
			xs[i] = center * (0.8 + 0.4*rng.Float64())
		}
		return xs
	}
	feed := func(b int64, center float64) []ChangePoint {
		return d.Observe(Observation{
			Bucket: b, At: logmodel.Millis(b) * logmodel.MillisPerHour,
			Active: []string{"App->GRP"},
			Delays: map[string][]float64{"App->GRP": sample(center)},
		})
	}
	b := int64(0)
	for i := 0; i < 10; i++ {
		if cps := feed(b, 1000); len(cps) != 0 {
			t.Fatalf("stable delays alerted: %v", kinds(cps))
		}
		b++
	}
	// Failover: delays triple. The channel is a persistence filter like the
	// presence one: the shift run must span DelayRuns buckets (its pooled
	// samples rejecting against the pre-shift reference) before the alarm.
	onset := b
	for i := 0; i < 2; i++ {
		if cps := feed(b, 3000); len(cps) != 0 {
			t.Fatalf("%d-bucket shift run alerted early: %v", i+1, kinds(cps))
		}
		b++
	}
	cps := feed(b, 3000)
	if len(cps) != 1 || cps[0].Kind != DelayShift || cps[0].Key != "App->GRP" {
		t.Fatalf("want delay-shift, got %v", kinds(cps))
	}
	if cps[0].Onset != onset {
		t.Fatalf("delay-shift onset = %d, want %d (first shifted bucket)", cps[0].Onset, onset)
	}
	b++
	// Reference was flushed; the shifted regime settles without a storm.
	for i := 0; i < 10; i++ {
		if cps := feed(b, 3000); len(cps) != 0 {
			t.Fatalf("post-shift steady state alerted again: %v", kinds(cps))
		}
		b++
	}
}

// randomObservation builds a pseudo-random observation over a small key
// universe — shared by the determinism and checkpoint tests.
func randomObservation(rng *rand.Rand, b int64) Observation {
	o := Observation{Bucket: b, At: logmodel.Millis(b) * logmodel.MillisPerHour}
	for k := 0; k < 6; k++ {
		key := fmt.Sprintf("app%d--svc%d", k, k)
		if rng.Float64() < 0.6 {
			o.Active = append(o.Active, key)
			if o.Scores == nil {
				o.Scores = map[string]float64{}
				o.Delays = map[string][]float64{}
			}
			o.Scores[key] = rng.Float64() * 40
			n := rng.Intn(12)
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.Float64() * 2000
			}
			o.Delays[key] = xs
		}
	}
	return o
}

func TestObserveDeterministic(t *testing.T) {
	run := func() ([]ChangePoint, []byte) {
		d := NewDetector(Config{K: 2, RefBuckets: 5})
		rng := rand.New(rand.NewSource(42))
		var all []ChangePoint
		for b := int64(0); b < 200; b++ {
			all = append(all, d.Observe(randomObservation(rng, b))...)
		}
		st, err := d.State()
		if err != nil {
			t.Fatal(err)
		}
		return all, st
	}
	a1, s1 := run()
	a2, s2 := run()
	if fmt.Sprint(a1) != fmt.Sprint(a2) {
		t.Fatal("same observations produced different alerts")
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("same observations produced different serialized state")
	}
}

func TestCheckpointRestoreByteIdentical(t *testing.T) {
	cfg := Config{K: 2, RefBuckets: 5}
	full := NewDetector(cfg)
	rng := rand.New(rand.NewSource(99))
	obs := make([]Observation, 120)
	for b := range obs {
		obs[b] = randomObservation(rng, int64(b))
	}
	var fullAlerts []ChangePoint
	var mid []byte
	for b, o := range obs {
		fullAlerts = append(fullAlerts, full.Observe(o)...)
		if b == 59 {
			st, err := full.State()
			if err != nil {
				t.Fatal(err)
			}
			mid = st
		}
	}
	restored, err := Restore(cfg, mid)
	if err != nil {
		t.Fatal(err)
	}
	var resumedAlerts []ChangePoint
	for _, o := range obs[60:] {
		resumedAlerts = append(resumedAlerts, restored.Observe(o)...)
	}
	// The resumed run must produce exactly the tail of the full run's
	// alerts and end in byte-identical state.
	var tail []ChangePoint
	for _, c := range fullAlerts {
		if c.Bucket >= 60 {
			tail = append(tail, c)
		}
	}
	if fmt.Sprint(tail) != fmt.Sprint(resumedAlerts) {
		t.Fatalf("resumed alerts diverge:\nfull tail: %v\nresumed:   %v", tail, resumedAlerts)
	}
	fs, err := full.State()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := restored.State()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fs, rs) {
		t.Fatalf("final state diverges after restore:\nfull:     %x\nrestored: %x", fs, rs)
	}
}

func TestRestoreRejectsBadState(t *testing.T) {
	if _, err := Restore(Config{}, nil); err == nil {
		t.Fatal("empty state restored")
	}
	if _, err := Restore(Config{}, []byte(`{"version":1,"seq":3}`)); err == nil {
		t.Fatal("version-1 JSON state restored")
	}
	if _, err := Restore(Config{}, []byte{stateVersion + 1, 0, 0, 0, 0}); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("future version restored, or refused without naming the version: %v", err)
	}
}

func TestMetricsCountAlertsWithoutChangingThem(t *testing.T) {
	run := func(r *obs.Registry) []ChangePoint {
		d := NewDetector(Config{K: 2, RefBuckets: 5, Metrics: r})
		rng := rand.New(rand.NewSource(5))
		var all []ChangePoint
		for b := int64(0); b < 150; b++ {
			all = append(all, d.Observe(randomObservation(rng, b))...)
		}
		return all
	}
	reg := obs.New()
	withMetrics := run(reg)
	without := run(nil)
	if fmt.Sprint(withMetrics) != fmt.Sprint(without) {
		t.Fatal("metrics on/off changed the alerts")
	}
	var counted int64
	for _, name := range []string{"drift.birth", "drift.death", "drift.score_shift", "drift.delay_shift"} {
		counted += reg.Counter(name).Value()
	}
	if counted != int64(len(withMetrics)) {
		t.Fatalf("drift.* counters sum to %d, want %d alerts", counted, len(withMetrics))
	}
}

func TestChangePointString(t *testing.T) {
	c := ChangePoint{
		Bucket: 12, At: 0,
		Onset: 9, Kind: Death, Key: "DPIMain->PDS", Score: 3,
	}
	want := "DRIFT [1970-01-01T00:00:00] death DPIMain->PDS (onset bucket 9, score 3)"
	if got := c.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestKeyHelpers(t *testing.T) {
	if PairKey("b", "a") != "a--b" || PairKey("a", "b") != "a--b" {
		t.Fatal("PairKey not canonical")
	}
	if DepKey("App", "GRP") != "App->GRP" {
		t.Fatal("DepKey wrong")
	}
}
