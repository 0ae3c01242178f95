package analysis

import (
	"strings"
)

// DirectivePrefix introduces an allow directive in a line comment:
//
//	//lint:allow <analyzer>[,<analyzer>...] <justification>
//
// A directive suppresses matching diagnostics on the line it shares with
// code; a directive alone on its line suppresses the line below it (so it
// can sit above a long statement). The analyzer list may be "all". The
// justification is free text and is mandatory by repo policy: the
// allow-directive audit test fails the build when it is missing, which
// keeps every suppression reviewable.
const DirectivePrefix = "//lint:allow"

// Directive is one parsed //lint:allow comment.
type Directive struct {
	// File and Line locate the directive itself.
	File string
	Line int
	// TargetLine is the line whose diagnostics the directive suppresses:
	// its own line when it trails code, the next line otherwise.
	TargetLine int
	// Analyzers lists the analyzer names being allowed ("all" matches
	// every analyzer).
	Analyzers []string
	// Justification is the free text after the analyzer list.
	Justification string
}

// Matches reports whether the directive suppresses the named analyzer.
func (d Directive) Matches(analyzer string) bool {
	for _, a := range d.Analyzers {
		if a == analyzer || a == "all" {
			return true
		}
	}
	return false
}

// ParseDirectives scans raw source for //lint:allow directives. It works
// on source text rather than the AST so that it sees directives anywhere a
// comment can appear, and so the driver, the test harness and the audit
// test share one grammar.
func ParseDirectives(filename string, src []byte) []Directive {
	var out []Directive
	for i, line := range strings.Split(string(src), "\n") {
		idx := strings.Index(line, DirectivePrefix)
		if idx < 0 || mentionOnly(line, idx) {
			continue
		}
		rest := line[idx+len(DirectivePrefix):]
		// Require a space (or end of line) after the marker so that e.g.
		// //lint:allowother is not misread.
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			continue
		}
		rest = trimTrailingComment(rest)
		fields := strings.Fields(rest)
		d := Directive{File: filename, Line: i + 1, TargetLine: i + 1}
		if len(fields) > 0 {
			d.Analyzers = strings.Split(fields[0], ",")
			d.Justification = strings.TrimSpace(strings.Join(fields[1:], " "))
		}
		// A directive with no code before it on the line targets the next
		// line instead.
		if strings.TrimSpace(line[:idx]) == "" {
			d.TargetLine = i + 2
		}
		out = append(out, d)
	}
	return out
}

// trimTrailingComment cuts a directive's text at a nested // marker: the
// directive grammar runs to the end of the line or the next comment (as in
// fixture files that put // want expectations after a directive).
func trimTrailingComment(s string) string {
	if i := strings.Index(s, "//"); i >= 0 {
		return s[:i]
	}
	return s
}

// mentionOnly reports whether the marker at byte offset idx is quoted text
// rather than a live directive: it sits inside a string or rune literal, or
// inside a comment that began earlier on the line (prose quoting the
// grammar, or an analyzer's own error-message literals). The scan is
// line-local, so a marker on the interior line of a multi-line raw string
// is not recognized as quoted; keep such examples on one line.
func mentionOnly(line string, idx int) bool {
	var quote byte // active quote character, 0 when outside any literal
	for i := 0; i < idx && i < len(line); i++ {
		c := line[i]
		switch {
		case quote == 0:
			if c == '"' || c == '`' || c == '\'' {
				quote = c
			} else if c == '/' && i+1 < len(line) && line[i+1] == '/' {
				// The rest of the line is already a comment, so the marker
				// is comment text being quoted, not a directive.
				return true
			}
		case quote == '`':
			if c == '`' {
				quote = 0
			}
		default:
			if c == '\\' {
				i++ // skip the escaped character
			} else if c == quote {
				quote = 0
			}
		}
	}
	return quote != 0
}

// AuditAnalyzerName is the one analyzer whose findings FilterByDirectives
// never suppresses: allowaudit reports malformed //lint: directives, so a
// directive must not be able to silence the report about itself.
const AuditAnalyzerName = "allowaudit"

// FilterByDirectives drops findings suppressed by a matching directive in
// the corresponding file's sources. sources maps a filename (as it appears
// in Finding.Pos.Filename) to its raw content. Findings from the directive
// audit itself (AuditAnalyzerName) are never suppressed.
func FilterByDirectives(findings []Finding, sources map[string][]byte) []Finding {
	dirs := make(map[string][]Directive, len(sources))
	for name, src := range sources {
		if ds := ParseDirectives(name, src); len(ds) > 0 {
			dirs[name] = ds
		}
	}
	kept := findings[:0]
	for _, f := range findings {
		suppressed := false
		if f.Analyzer != AuditAnalyzerName {
			for _, d := range dirs[f.Pos.Filename] {
				if d.TargetLine == f.Pos.Line && d.Matches(f.Analyzer) {
					suppressed = true
					break
				}
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	return kept
}
