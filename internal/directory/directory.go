package directory

import (
	"encoding/xml"
	"fmt"
	"io"
	"net/url"
	"os"
	"sort"
	"strings"

	"logscape/internal/textproc"
)

// Group is one service-directory entry: a group of functionally related
// services sharing a root URL.
type Group struct {
	// ID is the directory identifier, e.g. DPINOTIFICATION.
	ID string `xml:"id,attr"`
	// RootURL is the root URL of the group's services.
	RootURL string `xml:"rootURL,attr"`
	// Replicas are alternative hosts serving the group.
	Replicas []Replica `xml:"replica"`
	// Services are the function names exposed by the group.
	Services []Service `xml:"service"`
}

// Replica is one replication target of a group.
type Replica struct {
	Host string `xml:"host,attr"`
}

// Service is one service function within a group.
type Service struct {
	Name string `xml:"name,attr"`
}

// Directory is a service directory: the ordered set of service groups.
type Directory struct {
	XMLName xml.Name `xml:"serviceDirectory"`
	Version int      `xml:"version,attr"`
	Groups  []Group  `xml:"group"`
}

// Validate checks structural invariants: non-empty unique ids, parseable
// root URLs, and at least one service per group.
func (d *Directory) Validate() error {
	seen := make(map[string]bool, len(d.Groups))
	for _, g := range d.Groups {
		if g.ID == "" {
			return fmt.Errorf("directory: group with empty id")
		}
		if seen[g.ID] {
			return fmt.Errorf("directory: duplicate group id %q", g.ID)
		}
		seen[g.ID] = true
		if _, err := url.Parse(g.RootURL); err != nil || g.RootURL == "" {
			return fmt.Errorf("directory: group %s: bad root URL %q", g.ID, g.RootURL)
		}
		if len(g.Services) == 0 {
			return fmt.Errorf("directory: group %s: no services", g.ID)
		}
	}
	return nil
}

// Write marshals the directory as indented XML with a header.
func (d *Directory) Write(w io.Writer) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(d); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// Read unmarshals a directory from XML and validates it.
func Read(r io.Reader) (*Directory, error) {
	var d Directory
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("directory: decode: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// ReadFile is Read over the XML file at path.
func ReadFile(path string) (*Directory, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// StopPattern suppresses logs that would otherwise be read as client-side
// invocation logs (§3.3): typically the callee's own log of serving a
// request, which cites its own group and would invert the dependency
// direction. A log matches when its source equals Source (if non-empty) and
// its message contains Contains (if non-empty, word-insensitive substring).
type StopPattern struct {
	// Source restricts the pattern to logs of this source; empty matches
	// any source.
	Source string
	// Contains is a substring the message must contain.
	Contains string
}

// Matches reports whether the pattern suppresses a log with the given
// source and message.
func (p StopPattern) Matches(source, message string) bool {
	if p.Source != "" && p.Source != source {
		return false
	}
	if p.Contains != "" && !strings.Contains(message, p.Contains) {
		return false
	}
	return p.Source != "" || p.Contains != ""
}

// String renders the pattern for diagnostics.
func (p StopPattern) String() string {
	return fmt.Sprintf("stop{source=%q contains=%q}", p.Source, p.Contains)
}

// CanonicalStopPatterns returns the ten stop patterns used by the case
// study (§4.8 reports results "with 10 stop patterns"). Each pattern
// matches one of the server-side serving-log formats; two formats
// deliberately remain uncovered.
func CanonicalStopPatterns() []StopPattern {
	return []StopPattern{
		{Contains: "serving request "},
		{Contains: "handled "},
		{Contains: "request received ["},
		{Contains: "on behalf of client"},
		{Contains: "SOAP dispatch "},
		{Contains: "inbound call "},
		{Contains: "processed "},
		{Contains: " begin "},
		{Contains: "answering "},
		{Contains: "::"},
	}
}

// CitationScanner finds directory-entry citations in free text. It matches
// group ids word-bounded and root-URL host/path fragments by substring,
// using one Aho–Corasick pass per message.
type CitationScanner struct {
	dir *Directory
	// idMatcher matches group ids; pattern i ↦ group index idGroup[i].
	idMatcher *textproc.Matcher
	idGroup   []int
	// urlMatcher matches URL fragments; pattern i ↦ group index urlGroup[i].
	urlMatcher *textproc.Matcher
	urlGroup   []int
	stops      []StopPattern
}

// NewCitationScanner builds a scanner for the directory with the given stop
// patterns.
func NewCitationScanner(d *Directory, stops []StopPattern) *CitationScanner {
	var idPats []string
	var idGroup []int
	var urlPats []string
	var urlGroup []int
	for gi, g := range d.Groups {
		idPats = append(idPats, g.ID)
		idGroup = append(idGroup, gi)
		if frag := urlFragment(g.RootURL); frag != "" {
			urlPats = append(urlPats, frag)
			urlGroup = append(urlGroup, gi)
		}
	}
	return &CitationScanner{
		dir:        d,
		idMatcher:  textproc.NewMatcher(idPats),
		idGroup:    idGroup,
		urlMatcher: textproc.NewMatcher(urlPats),
		urlGroup:   urlGroup,
		stops:      stops,
	}
}

// urlFragment extracts the "host:port/path" fragment of a root URL that
// developers typically paste into invocation logs.
func urlFragment(root string) string {
	u, err := url.Parse(root)
	if err != nil || u.Host == "" {
		return ""
	}
	return u.Host + u.Path
}

// Stopped reports whether a log from source with the given message is
// suppressed by a stop pattern.
func (cs *CitationScanner) Stopped(source, message string) bool {
	for _, p := range cs.stops {
		if p.Matches(source, message) {
			return true
		}
	}
	return false
}

// Citations returns the ids of the directory groups cited in message,
// sorted and de-duplicated, ignoring stop patterns (the caller decides when
// to apply Stopped). It returns nil when nothing is cited.
func (cs *CitationScanner) Citations(message string) []string {
	var ids map[string]bool
	for _, pi := range cs.idMatcher.FindSetWordBounded(message) {
		if ids == nil {
			ids = make(map[string]bool, 2)
		}
		ids[cs.dir.Groups[cs.idGroup[pi]].ID] = true
	}
	for _, pi := range cs.urlMatcher.FindSet(message) {
		if ids == nil {
			ids = make(map[string]bool, 2)
		}
		ids[cs.dir.Groups[cs.urlGroup[pi]].ID] = true
	}
	if ids == nil {
		return nil
	}
	out := make([]string, 0, len(ids))
	for id := range ids {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
