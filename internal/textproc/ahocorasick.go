package textproc

import "sort"

// Matcher is an Aho–Corasick automaton over a fixed set of byte patterns.
// It finds all occurrences of all patterns in a single pass over the text,
// which keeps approach L3 linear in the number of logs regardless of the
// directory size.
type Matcher struct {
	patterns []string
	// next[state] maps an input byte to the next state (goto + failure
	// resolved ahead of time into a DFA).
	next []([256]int32)
	// out[state] lists the pattern indexes ending at this state.
	out [][]int32
}

// NewMatcher builds an automaton for the given patterns. Empty patterns are
// permitted but never match. Duplicate patterns each report their own index.
func NewMatcher(patterns []string) *Matcher {
	m := &Matcher{patterns: append([]string(nil), patterns...)}
	// Trie construction.
	m.next = append(m.next, [256]int32{})
	m.out = append(m.out, nil)
	// goto function stored directly in next; -1 marks absence during build.
	for i := range m.next[0] {
		m.next[0][i] = -1
	}
	for pi, p := range patterns {
		if p == "" {
			continue
		}
		state := int32(0)
		for i := 0; i < len(p); i++ {
			c := p[i]
			if m.next[state][c] == -1 {
				m.next = append(m.next, [256]int32{})
				for j := range m.next[len(m.next)-1] {
					m.next[len(m.next)-1][j] = -1
				}
				m.out = append(m.out, nil)
				m.next[state][c] = int32(len(m.next) - 1)
			}
			state = m.next[state][c]
		}
		m.out[state] = append(m.out[state], int32(pi))
	}
	// BFS to compute failure links and convert to DFA.
	fail := make([]int32, len(m.next))
	var queue []int32
	for c := 0; c < 256; c++ {
		s := m.next[0][c]
		if s == -1 {
			m.next[0][c] = 0
		} else {
			fail[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		for c := 0; c < 256; c++ {
			s := m.next[r][c]
			if s == -1 {
				m.next[r][c] = m.next[fail[r]][c]
				continue
			}
			queue = append(queue, s)
			f := m.next[fail[r]][c]
			fail[s] = f
			m.out[s] = append(m.out[s], m.out[f]...)
		}
	}
	return m
}

// FindSet returns the set of distinct pattern indexes occurring in text,
// sorted ascending. It allocates only when there are matches.
func (m *Matcher) FindSet(text string) []int {
	var set map[int]bool
	state := int32(0)
	for i := 0; i < len(text); i++ {
		state = m.next[state][text[i]]
		for _, pi := range m.out[state] {
			if set == nil {
				set = make(map[int]bool, 4)
			}
			set[int(pi)] = true
		}
	}
	if set == nil {
		return nil
	}
	out := make([]int, 0, len(set))
	for pi := range set {
		out = append(out, pi)
	}
	sort.Ints(out)
	return out
}

// FindSetWordBounded is FindSet restricted to occurrences that are
// word-bounded: the bytes adjacent to the occurrence (if any) must not be
// identifier characters (letters, digits, '_'). This prevents the directory
// id UPSRV from matching inside UPSRV2 — exactly the confusion behind the
// "wrong name" false negatives discussed in §4.8 — while still letting the
// caller detect the longer id.
func (m *Matcher) FindSetWordBounded(text string) []int {
	var set map[int]bool
	state := int32(0)
	for i := 0; i < len(text); i++ {
		state = m.next[state][text[i]]
		for _, pi := range m.out[state] {
			p := m.patterns[pi]
			start := i + 1 - len(p)
			if start > 0 && isWordByte(text[start-1]) {
				continue
			}
			if i+1 < len(text) && isWordByte(text[i+1]) {
				continue
			}
			if set == nil {
				set = make(map[int]bool, 4)
			}
			set[int(pi)] = true
		}
	}
	if set == nil {
		return nil
	}
	out := make([]int, 0, len(set))
	for pi := range set {
		out = append(out, pi)
	}
	sort.Ints(out)
	return out
}

func isWordByte(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}
