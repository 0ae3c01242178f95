package logscape_test

import (
	"bytes"
	"strings"
	"testing"

	"logscape"
)

func TestReadWriteLogsRoundTrip(t *testing.T) {
	tb := logscape.NewTestbed(3, 0.02, 1)
	store := tb.Day(0)
	var buf bytes.Buffer
	if err := logscape.WriteLogs(&buf, store); err != nil {
		t.Fatal(err)
	}
	got, err := logscape.ReadLogs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != store.Len() {
		t.Fatalf("round trip: %d vs %d entries", got.Len(), store.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.Entries()[i] != store.Entries()[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestReadDirectory(t *testing.T) {
	tb := logscape.NewTestbed(3, 0.02, 1)
	var buf bytes.Buffer
	if err := tb.Directory().Write(&buf); err != nil {
		t.Fatal(err)
	}
	dir, err := logscape.ReadDirectory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dir.Groups) != 47 {
		t.Errorf("groups = %d", len(dir.Groups))
	}
	if _, err := logscape.ReadDirectory(strings.NewReader("junk")); err == nil {
		t.Error("expected error for junk directory")
	}
}

func TestTestbedGroundTruth(t *testing.T) {
	tb := logscape.NewTestbed(3, 0.02, 2)
	if tb.Days() != 2 {
		t.Errorf("Days = %d", tb.Days())
	}
	if got := len(tb.TrueDeps()); got != 177 {
		t.Errorf("true deps = %d", got)
	}
	if got := len(tb.Apps()); got != 54 {
		t.Errorf("apps = %d", got)
	}
	owners := tb.GroupOwners()
	if len(owners) != 47 {
		t.Errorf("owners = %d", len(owners))
	}
	for d := range tb.TrueDeps() {
		if owners[d.Group] == "" {
			t.Fatalf("dependency %v targets unknown group", d)
		}
	}
	if tb.PairUniverse() != 1431 || tb.DepUniverse() != 54*47 {
		t.Errorf("universes = %d, %d", tb.PairUniverse(), tb.DepUniverse())
	}
	if tb.IsWeekend(0) {
		t.Error("day 0 (Tuesday) flagged as weekend")
	}
	if tb.DayRange(1).Start != tb.DayRange(0).End {
		t.Error("day ranges not contiguous")
	}
}

func TestPublicEndToEndL3(t *testing.T) {
	tb := logscape.NewTestbed(5, 0.05, 1)
	m := logscape.NewL3Miner(tb.Directory(), logscape.L3Config{Stops: tb.StopPatterns()})
	deps := m.Mine(tb.Day(0), logscape.TimeRange{}).Dependencies()
	if len(deps) == 0 {
		t.Fatal("no dependencies mined")
	}
	conf := logscape.CompareAppService(deps, tb.TrueDeps(), tb.DepUniverse())
	if conf.Precision() < 0.8 {
		t.Errorf("precision = %.2f", conf.Precision())
	}
}

func TestPublicEndToEndL2(t *testing.T) {
	tb := logscape.NewTestbed(5, 0.2, 1)
	ss, stats := logscape.BuildSessions(tb.Day(0), logscape.SessionConfig{})
	if stats.Sessions == 0 {
		t.Fatal("no sessions")
	}
	pairs := logscape.MineL2(ss, logscape.L2Config{}).DependentPairs()
	if len(pairs) == 0 {
		t.Fatal("no pairs mined")
	}
	conf := logscape.ComparePairs(pairs, tb.TruePairs(), tb.PairUniverse())
	if conf.Precision() < 0.6 {
		t.Errorf("precision = %.2f (tp=%d fp=%d)", conf.Precision(), conf.TP, conf.FP)
	}
}

func TestPublicEndToEndL1(t *testing.T) {
	tb := logscape.NewTestbed(5, 0.5, 1)
	store := tb.Day(0)
	res := logscape.MineL1(store, tb.DayRange(0), tb.Apps(), logscape.L1Config{MinLogs: 8})
	pairs := res.DependentPairs()
	conf := logscape.ComparePairs(pairs, tb.TruePairs(), tb.PairUniverse())
	if conf.TP == 0 {
		t.Error("L1 found nothing on a half-scale day")
	}
	if conf.FalsePositiveRate() > 0.03 {
		t.Errorf("L1 FPR = %.3f", conf.FalsePositiveRate())
	}
}

func TestPublicBaseline(t *testing.T) {
	tb := logscape.NewTestbed(5, 0.2, 1)
	store := tb.Day(0)
	hour := logscape.TimeRange{
		Start: tb.DayRange(0).Start + 10*logscape.MillisPerHour,
		End:   tb.DayRange(0).Start + 11*logscape.MillisPerHour,
	}
	res := logscape.MineBaseline(store, hour, tb.Apps(), logscape.BaselineConfig{})
	if len(res.Ordered) == 0 {
		t.Fatal("baseline tested nothing")
	}
}

func TestMakePairFacade(t *testing.T) {
	if logscape.MakePair("z", "a") != logscape.MakePair("a", "z") {
		t.Error("MakePair not symmetric")
	}
}
