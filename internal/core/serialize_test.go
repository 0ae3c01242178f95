package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestModelDocumentRoundTripPairs(t *testing.T) {
	s := PairSet{
		MakePair("B", "A"): true,
		MakePair("C", "A"): true,
	}
	doc := NewPairDocument("l2", s, map[string]string{"timeout": "1s"})
	var buf bytes.Buffer
	if err := WriteModel(&buf, doc); err != nil {
		t.Fatal(err)
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Technique != "l2" || got.Params["timeout"] != "1s" {
		t.Errorf("metadata = %+v", got)
	}
	if !reflect.DeepEqual(got.PairSet(), s) {
		t.Errorf("pairs = %v", got.PairSet())
	}
}

func TestModelDocumentRoundTripDeps(t *testing.T) {
	s := AppServiceSet{
		{App: "A", Group: "G1"}: true,
		{App: "B", Group: "G2"}: true,
	}
	doc := NewDepDocument("l3", s, nil)
	var buf bytes.Buffer
	if err := WriteModel(&buf, doc); err != nil {
		t.Fatal(err)
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.DepSet(), s) {
		t.Errorf("deps = %v", got.DepSet())
	}
}

func TestModelDocumentValidate(t *testing.T) {
	cases := []ModelDocument{
		{}, // no technique
		{Technique: "x", Pairs: []Pair{{A: "B", B: "A"}}},                                                 // unsorted pair
		{Technique: "x", Pairs: []Pair{{A: "", B: "A"}}},                                                  // empty member
		{Technique: "x", Deps: []AppServicePair{{App: "", Group: "G"}}},                                   // empty app
		{Technique: "x", Pairs: []Pair{{A: "A", B: "B"}}, Deps: []AppServicePair{{App: "A", Group: "G"}}}, // both
	}
	for i, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	ok := ModelDocument{Technique: "l1"}
	if err := ok.Validate(); err != nil {
		t.Errorf("empty model: %v", err)
	}
}

func TestReadModelErrors(t *testing.T) {
	if _, err := ReadModel(strings.NewReader("not json")); err == nil {
		t.Error("expected decode error")
	}
	if _, err := ReadModel(strings.NewReader(`{"pairs":[{"A":"x","B":"y"}]}`)); err == nil {
		t.Error("expected validation error (no technique)")
	}
}
