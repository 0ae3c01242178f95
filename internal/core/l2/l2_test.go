package l2

import (
	"reflect"
	"testing"

	"logscape/internal/core"
	"logscape/internal/logmodel"
	"logscape/internal/sessions"
)

// figure3Session reproduces the running example of §3.2 (figure 3): A2
// calls A1, then twice A3, which in turn calls A4. Timestamps in
// milliseconds, the final gap exceeding 0.5 s.
func figure3Session() sessions.Session {
	mk := func(t logmodel.Millis, src string) logmodel.Entry {
		return logmodel.Entry{Time: t, Source: src, User: "u", Severity: logmodel.SevInfo}
	}
	return sessions.Session{User: "u", Entries: []logmodel.Entry{
		mk(0, "A2"),
		mk(100, "A1"),
		mk(200, "A2"),
		mk(300, "A3"),
		mk(400, "A4"),
		mk(500, "A2"),
		mk(600, "A3"),
		mk(700, "A4"),
		mk(1400, "A2"), // gap of 0.7 s to the previous log
	}}
}

func TestExtractBigramsRunningExample(t *testing.T) {
	s := figure3Session()
	got := ExtractBigrams(&s, NoTimeout)
	want := []Bigram{
		{"A2", "A1"}, {"A1", "A2"}, {"A2", "A3"}, {"A3", "A4"},
		{"A4", "A2"}, {"A2", "A3"}, {"A3", "A4"}, {"A4", "A2"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("bigrams = %v\nwant %v", got, want)
	}
}

func TestExtractBigramsTimeout(t *testing.T) {
	s := figure3Session()
	// §3.2: "the last bigram (A4, A2) would be ignored for any timeout
	// value between 0 and 0.5 seconds" — here the final gap is 0.7 s.
	got := ExtractBigrams(&s, logmodel.SecondsToMillis(0.5))
	if len(got) != 7 {
		t.Fatalf("bigrams = %d, want 7", len(got))
	}
	for _, b := range got {
		if b == (Bigram{"A4", "A2"}) && got[len(got)-1] == b {
			// the earlier (A4, A2) at gap 0.1 s must remain
			break
		}
	}
	last := got[len(got)-1]
	if last != (Bigram{"A3", "A4"}) {
		t.Errorf("last bigram = %v, want {A3 A4}", last)
	}
}

func TestExtractBigramsSkipsSameSource(t *testing.T) {
	mk := func(t logmodel.Millis, src string) logmodel.Entry {
		return logmodel.Entry{Time: t, Source: src}
	}
	s := sessions.Session{Entries: []logmodel.Entry{
		mk(0, "A"), mk(1, "A"), mk(2, "B"),
	}}
	got := ExtractBigrams(&s, NoTimeout)
	if len(got) != 1 || got[0] != (Bigram{"A", "B"}) {
		t.Errorf("bigrams = %v", got)
	}
}

// TestFigure4Table reproduces figure 4 exactly: the contingency table for
// bigram type (A2, A3) over the 8 bigrams of the running example.
func TestFigure4Table(t *testing.T) {
	s := figure3Session()
	counts := CountBigrams([]sessions.Session{s}, NoTimeout)
	if counts.Total != 8 {
		t.Fatalf("total bigrams = %v, want 8", counts.Total)
	}
	tab := counts.Table(Bigram{"A2", "A3"})
	if tab.O11 != 2 || tab.O21 != 0 || tab.O12 != 1 || tab.O22 != 5 {
		t.Errorf("table = %+v, want O11=2 O21=0 O12=1 O22=5 (figure 4)", tab)
	}
}

func TestCountBigramsMarginals(t *testing.T) {
	s := figure3Session()
	counts := CountBigrams([]sessions.Session{s}, NoTimeout)
	if counts.First["A2"] != 3 {
		t.Errorf("First[A2] = %v", counts.First["A2"])
	}
	if counts.Second["A3"] != 2 {
		t.Errorf("Second[A3] = %v", counts.Second["A3"])
	}
	// Marginal sums equal the total.
	var f, sec float64
	for _, v := range counts.First {
		f += v //lint:allow taintorder integer-valued counts, addition is exact and commutative
	}
	for _, v := range counts.Second {
		sec += v //lint:allow taintorder integer-valued counts, addition is exact and commutative
	}
	if f != counts.Total || sec != counts.Total { //lint:allow floateq integer-valued counts, marginal identity must be exact
		t.Errorf("marginal sums %v/%v != total %v", f, sec, counts.Total)
	}
}

// corpusWithDependency builds a session corpus where A→B adjacencies are
// systematic and X, Y are independent fillers.
func corpusWithDependency(n int) []sessions.Session {
	var out []sessions.Session
	srcs := []string{"X", "Y", "Z", "W"}
	for i := 0; i < n; i++ {
		var es []logmodel.Entry
		t := logmodel.Millis(i) * logmodel.MillisPerMinute
		for j := 0; j < 6; j++ {
			es = append(es, logmodel.Entry{Time: t, Source: "A"})
			es = append(es, logmodel.Entry{Time: t + 50, Source: "B"})
			filler := srcs[(i+j)%len(srcs)]
			es = append(es, logmodel.Entry{Time: t + 300, Source: filler})
			t += 600
		}
		out = append(out, sessions.Session{User: "u", Entries: es})
	}
	return out
}

func TestMineFindsDependency(t *testing.T) {
	corpus := corpusWithDependency(30)
	res := Mine(corpus, Config{})
	dep := res.DependentPairs()
	if !dep[core.MakePair("A", "B")] {
		tr := res.Types[Bigram{"A", "B"}]
		t.Errorf("A-B not found: %+v", tr)
	}
	// Fillers follow B systematically too (B→filler adjacency), but each
	// individual filler is diluted; the strongly significant pair must be
	// A-B. At minimum, unrelated filler-filler pairs must be absent.
	if dep[core.MakePair("X", "Y")] {
		t.Error("filler pair X-Y flagged")
	}
}

func TestMineRespectsMinJoint(t *testing.T) {
	// A single strong adjacency occurring twice: below MinJoint=3.
	s := sessions.Session{Entries: []logmodel.Entry{
		{Time: 0, Source: "P"}, {Time: 1, Source: "Q"},
		{Time: 100, Source: "P"}, {Time: 101, Source: "Q"},
		{Time: 200, Source: "R"}, {Time: 300, Source: "S"},
	}}
	res := Mine([]sessions.Session{s}, Config{})
	if res.DependentPairs()[core.MakePair("P", "Q")] {
		t.Error("pair with O11=2 passed MinJoint=3")
	}
}

func TestMinePearsonAblation(t *testing.T) {
	corpus := corpusWithDependency(30)
	g2 := Mine(corpus, Config{Measure: MeasureG2})
	x2 := Mine(corpus, Config{Measure: MeasurePearson})
	if !g2.DependentPairs()[core.MakePair("A", "B")] ||
		!x2.DependentPairs()[core.MakePair("A", "B")] {
		t.Error("both measures must find the strong pair")
	}
	// Pearson inflates statistics on skewed tables: its statistic for the
	// same type must be at least G²'s here (systematic attraction).
	tg := g2.Types[Bigram{"A", "B"}]
	tx := x2.Types[Bigram{"A", "B"}]
	if tg.Statistic <= 0 || tx.Statistic <= 0 {
		t.Error("non-positive statistics")
	}
}

func TestMineFisherMeasure(t *testing.T) {
	corpus := corpusWithDependency(30)
	res := Mine(corpus, Config{Measure: MeasureFisher})
	if !res.DependentPairs()[core.MakePair("A", "B")] {
		t.Errorf("Fisher measure missed the strong pair: %+v", res.Types[Bigram{"A", "B"}])
	}
	// Fisher is more conservative than the asymptotic tests on small
	// corpora: it must not flag more pairs than G² at the same alpha.
	g2 := Mine(corpus, Config{Measure: MeasureG2})
	if len(res.DependentPairs()) > len(g2.DependentPairs()) {
		t.Errorf("Fisher pairs %d > G² pairs %d", len(res.DependentPairs()), len(g2.DependentPairs()))
	}
}

func TestMineEmptyCorpus(t *testing.T) {
	res := Mine(nil, Config{})
	if len(res.Types) != 0 || len(res.DependentPairs()) != 0 {
		t.Error("empty corpus should mine nothing")
	}
}

func TestDirectionHints(t *testing.T) {
	corpus := corpusWithDependency(20)
	pairs := core.PairSet{core.MakePair("A", "B"): true}
	hints := DirectionHints(corpus, pairs, logmodel.SecondsToMillis(0.2))
	h := hints[core.MakePair("A", "B")]
	if h.Caller() != "A" {
		t.Errorf("caller = %q (AFirst=%d BFirst=%d)", h.Caller(), h.AFirst, h.BFirst)
	}
	if h.AFirst == 0 {
		t.Error("no runs scored")
	}
}

func TestDirectionHintBalanced(t *testing.T) {
	h := DirectionHint{Pair: core.MakePair("A", "B"), AFirst: 3, BFirst: 3}
	if h.Caller() != "" {
		t.Errorf("balanced hint caller = %q", h.Caller())
	}
	h.BFirst = 5
	if h.Caller() != "B" {
		t.Errorf("caller = %q", h.Caller())
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Timeout != logmodel.MillisPerSecond || c.Alpha != 0.05 || c.MinJoint != 3 {
		t.Errorf("defaults = %+v", c)
	}
	// NoTimeout must survive withDefaults.
	c2 := Config{Timeout: NoTimeout}.withDefaults()
	if c2.Timeout != NoTimeout {
		t.Errorf("NoTimeout overwritten: %v", c2.Timeout)
	}
}
