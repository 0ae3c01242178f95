package textproc

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestMatcherBasic(t *testing.T) {
	m := NewMatcher([]string{"he", "she", "his", "hers"})
	// "ushers" holds she and he (both ending at 4) and hers, but not his.
	if set := m.FindSet("ushers"); !reflect.DeepEqual(set, []int{0, 1, 3}) {
		t.Errorf("FindSet = %v", set)
	}
}

func TestMatcherFindSet(t *testing.T) {
	m := NewMatcher([]string{"DPINOTIFICATION", "UPSRV", "LABO"})
	set := m.FindSet("(DPINOTIFICATION) notify( $myparams ) via UPSRV")
	if !reflect.DeepEqual(set, []int{0, 1}) {
		t.Errorf("FindSet = %v", set)
	}
	if s := m.FindSet("nothing here"); s != nil {
		t.Errorf("no-match FindSet = %v", s)
	}
}

func TestMatcherEmptyAndDuplicates(t *testing.T) {
	m := NewMatcher([]string{"", "ab", "ab"})
	set := m.FindSet("ab")
	if !reflect.DeepEqual(set, []int{1, 2}) {
		t.Errorf("duplicate patterns FindSet = %v", set)
	}
	if s := m.FindSet(""); s != nil {
		t.Errorf("empty text FindSet = %v", s)
	}
}

func TestFindSetWordBounded(t *testing.T) {
	m := NewMatcher([]string{"UPSRV", "UPSRV2"})
	// UPSRV2 must match only pattern 1 (UPSRV inside UPSRV2 is not bounded).
	set := m.FindSetWordBounded("calling UPSRV2 now")
	if !reflect.DeepEqual(set, []int{1}) {
		t.Errorf("UPSRV2 set = %v", set)
	}
	set = m.FindSetWordBounded("calling UPSRV now")
	if !reflect.DeepEqual(set, []int{0}) {
		t.Errorf("UPSRV set = %v", set)
	}
	// Punctuation boundaries count as word boundaries.
	set = m.FindSetWordBounded("(UPSRV)")
	if !reflect.DeepEqual(set, []int{0}) {
		t.Errorf("parenthesized set = %v", set)
	}
	// At string edges.
	set = m.FindSetWordBounded("UPSRV")
	if !reflect.DeepEqual(set, []int{0}) {
		t.Errorf("edge set = %v", set)
	}
	if s := m.FindSetWordBounded("XUPSRVX"); s != nil {
		t.Errorf("embedded set = %v", s)
	}
}

// TestMatcherAgainstBruteForce: FindSet agrees with strings.Contains for
// random patterns and texts.
func TestMatcherAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	alphabet := "abc"
	randWord := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	for trial := 0; trial < 200; trial++ {
		np := 1 + rng.Intn(5)
		pats := make([]string, np)
		for i := range pats {
			pats[i] = randWord(1 + rng.Intn(4))
		}
		m := NewMatcher(pats)
		text := randWord(rng.Intn(40))
		got := m.FindSet(text)
		var want []int
		for i, p := range pats {
			if strings.Contains(text, p) {
				want = append(want, i)
			}
		}
		// FindSet reports each duplicate pattern separately, as does the
		// brute force above, so direct comparison is valid.
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("patterns %v text %q: got %v want %v", pats, text, got, want)
		}
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"hello world", []string{"hello", "world"}},
		{"(DPINOTIFICATION) notify( $x )", []string{"DPINOTIFICATION", "notify", "x"}},
		{"a_b-c.d", []string{"a_b", "c", "d"}},
		{"...", nil},
		{"trailing word", []string{"trailing", "word"}},
		{"x", []string{"x"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestHasWordBounded(t *testing.T) {
	cases := []struct {
		s, w string
		want bool
	}{
		{"call UPSRV now", "UPSRV", true},
		{"call UPSRV2 now", "UPSRV", false},
		{"UPSRV", "UPSRV", true},
		{"(UPSRV)", "UPSRV", true},
		{"xUPSRV", "UPSRV", false},
		{"UPSRV2 and UPSRV", "UPSRV", true},
		{"", "UPSRV", false},
		{"anything", "", false},
	}
	for _, c := range cases {
		if got := HasWordBounded(c.s, c.w); got != c.want {
			t.Errorf("HasWordBounded(%q, %q) = %v", c.s, c.w, got)
		}
	}
}

func TestSLCTBasic(t *testing.T) {
	msgs := []string{
		"user alice logged in",
		"user bob logged in",
		"user carol logged in",
		"disk full on /var",
	}
	tmpls := SLCT(msgs, 3)
	if len(tmpls) != 1 {
		t.Fatalf("templates = %v", tmpls)
	}
	if got := tmpls[0].String(); got != "user * logged in" {
		t.Errorf("template = %q", got)
	}
	if tmpls[0].Count != 3 {
		t.Errorf("count = %d", tmpls[0].Count)
	}
}

func TestSLCTMatches(t *testing.T) {
	tmpl := Template{Tokens: []string{"user", Wildcard, "logged", "in"}}
	if !tmpl.Matches(Tokenize("user dave logged in")) {
		t.Error("should match")
	}
	if tmpl.Matches(Tokenize("user dave logged out")) {
		t.Error("should not match different fixed token")
	}
	if tmpl.Matches(Tokenize("user dave logged in twice")) {
		t.Error("should not match different length")
	}
}

func TestSLCTSupportOne(t *testing.T) {
	msgs := []string{"a b", "a c"}
	tmpls := SLCT(msgs, 1)
	// support=1: every message is its own fully-fixed template.
	if len(tmpls) != 2 {
		t.Fatalf("templates = %v", tmpls)
	}
	for _, tm := range tmpls {
		for _, tok := range tm.Tokens {
			if tok == Wildcard {
				t.Errorf("unexpected wildcard in %v", tm)
			}
		}
	}
}

func TestSLCTAllWildcardDropped(t *testing.T) {
	// Messages that share no frequent word produce no template.
	msgs := []string{"aa bb", "cc dd", "ee ff"}
	if tmpls := SLCT(msgs, 2); len(tmpls) != 0 {
		t.Errorf("templates = %v", tmpls)
	}
}

func TestSLCTEmptyMessages(t *testing.T) {
	if tmpls := SLCT([]string{"", "...", ""}, 1); len(tmpls) != 0 {
		t.Errorf("templates = %v", tmpls)
	}
	if tmpls := SLCT(nil, 5); tmpls != nil {
		t.Errorf("nil input = %v", tmpls)
	}
}

func TestSLCTOrdering(t *testing.T) {
	msgs := []string{
		"x y", "x y", "x y", "x y",
		"p q", "p q", "p q",
	}
	tmpls := SLCT(msgs, 3)
	if len(tmpls) != 2 || tmpls[0].Count < tmpls[1].Count {
		t.Errorf("ordering: %v", tmpls)
	}
}

// TestSLCTRecoversTemplates: messages generated from known templates with
// random fill-ins are clustered back to those templates.
func TestSLCTRecoversTemplates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var msgs []string
	for i := 0; i < 200; i++ {
		msgs = append(msgs, "invoke service "+randID(rng)+" took "+randID(rng)+" ms")
	}
	for i := 0; i < 150; i++ {
		msgs = append(msgs, "session opened for user "+randID(rng))
	}
	tmpls := SLCT(msgs, 100)
	if len(tmpls) != 2 {
		t.Fatalf("templates = %v", tmpls)
	}
	if tmpls[0].String() != "invoke service * took * ms" {
		t.Errorf("template 0 = %q", tmpls[0])
	}
	if tmpls[1].String() != "session opened for user *" {
		t.Errorf("template 1 = %q", tmpls[1])
	}
}

func randID(rng *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, 8)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// TestTokenizeProperty: all returned tokens are non-empty and contain only
// word bytes.
func TestTokenizeProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
			for i := 0; i < len(tok); i++ {
				if !isWordByte(tok[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
