package directory

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func sampleDir() *Directory {
	return &Directory{
		Version: 1,
		Groups: []Group{
			{
				ID:      "DPINOTIFICATION",
				RootURL: "http://myserver.hcuge.ch:9999/myurl",
				Replicas: []Replica{
					{Host: "backup1.hcuge.ch"},
				},
				Services: []Service{{Name: "notify"}, {Name: "subscribe"}},
			},
			{
				ID:       "UPSRV",
				RootURL:  "http://upsrv.hcuge.ch/up",
				Services: []Service{{Name: "lookup"}},
			},
			{
				ID:       "UPSRV2",
				RootURL:  "http://upsrv2.hcuge.ch/up2",
				Services: []Service{{Name: "lookup"}},
			},
		},
	}
}

func TestXMLRoundTrip(t *testing.T) {
	d := sampleDir()
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `<?xml`) || !strings.Contains(out, `id="DPINOTIFICATION"`) {
		t.Errorf("XML output:\n%s", out)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Groups) != 3 {
		t.Fatalf("groups = %d", len(got.Groups))
	}
	if s := got.Groups[0].Services; len(s) != 2 || s[0].Name != "notify" || s[1].Name != "subscribe" {
		t.Errorf("services = %v", s)
	}
	if got.Groups[0].Replicas[0].Host != "backup1.hcuge.ch" {
		t.Errorf("replica = %+v", got.Groups[0].Replicas)
	}
	if got.Version != 1 {
		t.Errorf("version = %d", got.Version)
	}
}

func TestReadRejectsInvalid(t *testing.T) {
	cases := []string{
		`not xml at all`,
		`<serviceDirectory version="1"><group id="" rootURL="http://x/y"><service name="a"/></group></serviceDirectory>`,
		`<serviceDirectory version="1"><group id="A" rootURL="http://x/y"><service name="a"/></group><group id="A" rootURL="http://x/z"><service name="b"/></group></serviceDirectory>`,
		`<serviceDirectory version="1"><group id="A" rootURL=""><service name="a"/></group></serviceDirectory>`,
		`<serviceDirectory version="1"><group id="A" rootURL="http://x/y"></group></serviceDirectory>`,
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestCitationsByID(t *testing.T) {
	cs := NewCitationScanner(sampleDir(), nil)
	// The two example messages from §3.3.
	got := cs.Citations("Invoke externalService [fct [notify] server [myserver.hcuge.ch:9999/myurl]]")
	if !reflect.DeepEqual(got, []string{"DPINOTIFICATION"}) {
		t.Errorf("URL citation = %v", got)
	}
	got = cs.Citations("(DPINOTIFICATION) notify( $myparams )")
	if !reflect.DeepEqual(got, []string{"DPINOTIFICATION"}) {
		t.Errorf("id citation = %v", got)
	}
}

func TestCitationsWordBoundary(t *testing.T) {
	cs := NewCitationScanner(sampleDir(), nil)
	// UPSRV2 cited: must NOT report UPSRV (the §4.8 wrong-name scenario in
	// reverse — the matcher itself must not conflate prefixed ids).
	got := cs.Citations("calling UPSRV2.lookup for patient 123")
	if !reflect.DeepEqual(got, []string{"UPSRV2"}) {
		t.Errorf("citations = %v", got)
	}
	got = cs.Citations("calling UPSRV.lookup for patient 123")
	if !reflect.DeepEqual(got, []string{"UPSRV"}) {
		t.Errorf("citations = %v", got)
	}
}

func TestCitationsMultiple(t *testing.T) {
	cs := NewCitationScanner(sampleDir(), nil)
	got := cs.Citations("chain: UPSRV then (DPINOTIFICATION) done")
	if !reflect.DeepEqual(got, []string{"DPINOTIFICATION", "UPSRV"}) {
		t.Errorf("citations = %v", got)
	}
	if got := cs.Citations("no services mentioned"); got != nil {
		t.Errorf("citations = %v", got)
	}
	// Duplicate mentions collapse.
	got = cs.Citations("UPSRV UPSRV UPSRV")
	if !reflect.DeepEqual(got, []string{"UPSRV"}) {
		t.Errorf("citations = %v", got)
	}
}

func TestStopPatterns(t *testing.T) {
	stops := []StopPattern{
		{Source: "NotificationServer", Contains: "serving"},
		{Contains: "handled request"},
	}
	cs := NewCitationScanner(sampleDir(), stops)
	if !cs.Stopped("NotificationServer", "serving notify for DPINOTIFICATION") {
		t.Error("source+contains stop should match")
	}
	if cs.Stopped("OtherApp", "serving notify for DPINOTIFICATION") {
		t.Error("source-restricted stop should not match other source")
	}
	if !cs.Stopped("AnyApp", "handled request (UPSRV)") {
		t.Error("contains-only stop should match any source")
	}
	if cs.Stopped("AnyApp", "plain client invocation (UPSRV)") {
		t.Error("no stop should match")
	}
	if len(cs.stops) != 2 {
		t.Errorf("stops = %v", cs.stops)
	}
}

func TestStopPatternEmpty(t *testing.T) {
	// A fully empty pattern matches nothing (guard against accidental
	// drop-everything configuration).
	p := StopPattern{}
	if p.Matches("A", "anything") {
		t.Error("empty pattern must not match")
	}
	if s := p.String(); !strings.Contains(s, "stop{") {
		t.Errorf("String = %q", s)
	}
}

func TestCitationScannerEmptyDirectory(t *testing.T) {
	cs := NewCitationScanner(&Directory{}, nil)
	if got := cs.Citations("anything at all"); got != nil {
		t.Errorf("citations = %v", got)
	}
}
