package drift

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"logscape/internal/logmodel"
)

// syntheticStream generates a seeded observation stream exercising all
// three detector channels: eight keys with densities from dense to sparse,
// a mid-stream death (key 7), a delay-distribution shift (key 6) and a
// score level shift (key 5). The same seed always yields the same stream.
func syntheticStream(seed int64, n int) []Observation {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Observation, 0, n)
	for b := 0; b < n; b++ {
		o := Observation{
			Bucket: int64(b),
			At:     logmodel.Millis(b) * logmodel.MillisPerHour,
		}
		for k := 0; k < 8; k++ {
			key := fmt.Sprintf("App%d->GRP%d", k, k)
			p := 0.95 - 0.1*float64(k)
			if k == 7 && b > n/2 {
				p = 0 // scripted death
			}
			if rng.Float64() >= p {
				continue
			}
			o.Active = append(o.Active, key)
			center := 100 * float64(k+1)
			if k == 6 && b > 2*n/3 {
				center *= 4 // scripted delay shift
			}
			samples := make([]float64, 5+rng.Intn(8))
			for i := range samples {
				samples[i] = center * (0.5 + rng.Float64())
			}
			if o.Delays == nil {
				o.Delays = map[string][]float64{}
				o.Scores = map[string]float64{}
			}
			o.Delays[key] = samples
			s := float64(k) + 0.2*rng.NormFloat64()
			if k == 5 && b > 3*n/4 {
				s += 10 // scripted score shift
			}
			o.Scores[key] = s
		}
		out = append(out, o)
	}
	return out
}

// TestCheckpointRestoreMatchesUninterrupted is the resume-equivalence
// property: checkpointing a detector mid-stream and restoring it must yield
// byte-identical final state and an identical alert sequence to the
// uninterrupted run, across ten seeds and seed-dependent split points.
func TestCheckpointRestoreMatchesUninterrupted(t *testing.T) {
	const buckets = 120
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := Config{}

			ref := NewDetector(cfg)
			var refAlerts []ChangePoint
			for _, o := range syntheticStream(seed, buckets) {
				refAlerts = append(refAlerts, ref.Observe(o)...)
			}
			refState, err := ref.State()
			if err != nil {
				t.Fatal(err)
			}
			if len(refAlerts) == 0 {
				t.Fatal("synthetic stream raised no alerts; the property is vacuous")
			}

			cut := 20 + int(seed)*9 // split points spread over the stream
			split := NewDetector(cfg)
			stream := syntheticStream(seed, buckets)
			var alerts []ChangePoint
			for _, o := range stream[:cut] {
				alerts = append(alerts, split.Observe(o)...)
			}
			blob, err := split.State()
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := Restore(cfg, blob)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range stream[cut:] {
				alerts = append(alerts, resumed.Observe(o)...)
			}
			if !slices.Equal(alerts, refAlerts) {
				t.Errorf("alerts after restore at bucket %d differ\ngot:  %v\nwant: %v",
					cut, alerts, refAlerts)
			}
			gotState, err := resumed.State()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotState, refState) {
				t.Errorf("final state after restore at bucket %d differs\ngot:  %x\nwant: %x",
					cut, gotState, refState)
			}
		})
	}
}

// shaped projects an observation onto what one technique feeds the
// detector: L2 sends presence and scores, L3 presence and delay samples.
func shaped(o Observation, technique string) Observation {
	if technique == "l2" {
		o.Delays = nil
	} else {
		o.Scores = nil
	}
	return o
}

// TestStateRoundTripIsByteStable: State → Restore → State reproduces the
// image byte for byte after every bucket of an L2-shaped and an L3-shaped
// stream — including the buckets where a delay-shift run is pending, its
// votes held out of the reference and small buckets pooled behind them.
func TestStateRoundTripIsByteStable(t *testing.T) {
	for _, technique := range []string{"l2", "l3"} {
		d := NewDetector(Config{})
		held, pooled, rings := false, false, false
		for _, o := range syntheticStream(3, 120) {
			d.Observe(shaped(o, technique))
			for _, ds := range d.delays {
				held = held || ds.Pending > 0 && len(ds.Held) > 0
				pooled = pooled || len(ds.Pool) > 0
			}
			for _, ss := range d.scores {
				rings = rings || len(ss.Ring) > 0 && ss.Pos > 0
			}
			img, err := d.State()
			if err != nil {
				t.Fatal(err)
			}
			back, err := Restore(Config{}, img)
			if err != nil {
				t.Fatalf("%s, bucket %d: Restore of a fresh State: %v", technique, o.Bucket, err)
			}
			again, err := back.State()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, img) {
				t.Fatalf("%s, bucket %d: State → Restore → State changed the image\nfirst:  %x\nsecond: %x", technique, o.Bucket, img, again)
			}
		}
		if technique == "l2" && !rings || technique == "l3" && !(held && pooled) {
			t.Errorf("%s: the stream never put the detector mid-incident (rings %v, held %v, pooled %v)", technique, rings, held, pooled)
		}
	}
}

// TestStateKeepsFloatBits: scores travel as their IEEE-754 bits, so the
// values JSON could not carry — NaN with its payload, both infinities, −0 —
// come back exactly.
func TestStateKeepsFloatBits(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	ring := []float64{nan, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5}
	d := NewDetector(Config{})
	d.scores["a--b"] = &scoreState{Ring: ring, Pos: nan, Neg: math.Copysign(0, -1)}
	d.presence["a--b"] = &presenceState{Rate: math.Copysign(0, -1), RunRate: math.Inf(1)}
	d.delays["a--b"] = &delayState{Ref: [][]float64{{nan}, nil, {math.Inf(-1)}}}
	img, err := d.State()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Restore(Config{}, img)
	if err != nil {
		t.Fatal(err)
	}
	bits := func(xs ...float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	ss, ps, ds := back.scores["a--b"], back.presence["a--b"], back.delays["a--b"]
	if !slices.Equal(bits(ss.Ring...), bits(ring...)) || !slices.Equal(bits(ss.Pos, ss.Neg), bits(nan, math.Copysign(0, -1))) {
		t.Errorf("score state came back as %+v", ss)
	}
	if !slices.Equal(bits(ps.Rate, ps.RunRate), bits(math.Copysign(0, -1), math.Inf(1))) {
		t.Errorf("presence state came back as %+v", ps)
	}
	if len(ds.Ref) != 3 || !slices.Equal(bits(ds.Ref[0]...), bits(nan)) || len(ds.Ref[1]) != 0 || !slices.Equal(bits(ds.Ref[2]...), bits(math.Inf(-1))) {
		t.Errorf("delay state came back as %+v", ds)
	}
}

// midIncident returns the state image of a detector n buckets into the
// synthetic stream: all three tables populated.
func midIncident(t testing.TB, cfg Config, seed int64, n int) []byte {
	t.Helper()
	d := NewDetector(cfg)
	for _, o := range syntheticStream(seed, n) {
		d.Observe(o)
	}
	img, err := d.State()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestRestoreRefusesEveryDamagedLength: no strict prefix of a valid image
// restores, and neither does the image with a byte after it.
func TestRestoreRefusesEveryDamagedLength(t *testing.T) {
	img := midIncident(t, Config{}, 4, 90)
	for n := 0; n < len(img); n++ {
		if _, err := Restore(Config{}, img[:n]); err == nil {
			t.Fatalf("the first %d of %d bytes restored", n, len(img))
		}
	}
	if _, err := Restore(Config{}, append(img[:len(img):len(img)], 0)); err == nil {
		t.Fatal("an image with a trailing byte restored")
	}
}

// TestStateAllocations: on a warmed detector State sorts its keys in a
// scratch slice it keeps and builds the image in a buffer it keeps; what it
// allocates is the copy it hands out.
func TestStateAllocations(t *testing.T) {
	d := NewDetector(Config{})
	for _, o := range syntheticStream(5, 90) {
		d.Observe(o)
	}
	first, err := d.State()
	if err != nil {
		t.Fatal(err)
	}
	var second []byte
	if allocs := testing.AllocsPerRun(20, func() { second, _ = d.State() }); allocs > 2 {
		t.Errorf("State on a warmed detector allocates %.0f times, want at most 2", allocs)
	}
	second[0] ^= 0xff
	if third, _ := d.State(); bytes.Equal(third, second) || third[0] != first[0] {
		t.Error("State returned its own buffer: a caller's write showed up in the next image")
	}
}

// FuzzDriftRestore: arbitrary bytes either fail to restore or restore to a
// detector whose State is those bytes again — the format has one image per
// state, so nothing State would not have written is accepted. Never a
// panic, never a slice sized from a length the input cannot back.
func FuzzDriftRestore(f *testing.F) {
	// Short references keep the seeds to a few hundred bytes, which the
	// engine can mutate and minimize quickly; the layout is the same.
	small := Config{K: 2, RefBuckets: 2, MinDelaySamples: 4, DelayRuns: 2}
	for seed := int64(1); seed <= 3; seed++ {
		img := midIncident(f, small, seed, 12)
		f.Add(img)
		f.Add(img[:len(img)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{stateVersion, 0, 0, 0, 0})
	f.Add([]byte{stateVersion, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte(`{"version":1,"seq":3,"presence":[{"key":"a--b","state":{"confirmed":true}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Restore(Config{}, data)
		if err != nil {
			return
		}
		img, err := d.State()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, data) {
			t.Fatalf("accepted a non-canonical image\ninput: %x\nState: %x", data, img)
		}
	})
}
