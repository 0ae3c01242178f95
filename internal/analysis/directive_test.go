package analysis

import "testing"

// TestParseDirectivesMentions checks that quoted occurrences of the
// directive marker — in string literals or inside enclosing comments — are
// not parsed as live directives, while real trailing and standalone
// directives are.
func TestParseDirectivesMentions(t *testing.T) {
	src := []byte(`package p

// The grammar is //lint:allow <analyzer> <why> — prose mention, not live.
var msg = "write //lint:allow maporder why here" // string literal mention
var raw = ` + "`//lint:allow maporder backtick mention`" + `
var after = f("quoted") //lint:allow maporder directive after a closed string

func g() {
	h() //lint:allow wallclock trailing directive // want stays out of text
	//lint:allow floateq standalone directive
	k()
}
`)
	ds := ParseDirectives("p.go", src)
	if len(ds) != 3 {
		t.Fatalf("got %d directives %+v, want 3", len(ds), ds)
	}
	if ds[0].Line != 6 || ds[0].Analyzers[0] != "maporder" {
		t.Errorf("directive after closed string: got %+v", ds[0])
	}
	if ds[1].Line != 9 || ds[1].TargetLine != 9 || ds[1].Justification != "trailing directive" {
		t.Errorf("trailing directive: got %+v", ds[1])
	}
	if ds[2].Line != 10 || ds[2].TargetLine != 11 || ds[2].Analyzers[0] != "floateq" {
		t.Errorf("standalone directive: got %+v", ds[2])
	}
}
