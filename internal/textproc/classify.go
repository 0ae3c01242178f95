package textproc

// Classifier assigns free-text messages to the SLCT templates they match —
// the preprocessing step the paper's §5 proposes ("one could also study
// the benefit of classifying log messages of a given application in a
// preprocessing step, using algorithms mentioned in §2.2"). Downstream,
// a miner can restrict an application's log sequence to the template
// classes that carry interaction semantics.
type Classifier struct {
	templates []Template
	// byLen indexes template ids by token count; a message can only match
	// templates of its own length.
	byLen map[int][]int
}

// NewClassifier builds a classifier over the given templates. Templates
// are matched in the given order (first match wins), so pass them sorted
// by decreasing support for the most-specific-common behavior.
func NewClassifier(templates []Template) *Classifier {
	c := &Classifier{templates: templates, byLen: make(map[int][]int)}
	for i, t := range templates {
		n := len(t.Tokens)
		c.byLen[n] = append(c.byLen[n], i)
	}
	return c
}

// Train runs SLCT over the corpus and returns a classifier over the
// resulting templates.
func Train(messages []string, support int) *Classifier {
	return NewClassifier(SLCT(messages, support))
}

// Template returns the i-th template.
func (c *Classifier) Template(i int) Template { return c.templates[i] }

// Classify returns the id of the first template matching the message, or
// (-1, false) when none matches (an "outlier" message in SLCT terms).
func (c *Classifier) Classify(msg string) (int, bool) {
	toks := Tokenize(msg)
	for _, i := range c.byLen[len(toks)] {
		if c.templates[i].Matches(toks) {
			return i, true
		}
	}
	return -1, false
}

// ClassCounts classifies every message and returns the per-template counts
// plus the number of outliers.
func (c *Classifier) ClassCounts(messages []string) (counts []int, outliers int) {
	counts = make([]int, len(c.templates))
	for _, m := range messages {
		if id, ok := c.Classify(m); ok {
			counts[id]++
		} else {
			outliers++
		}
	}
	return counts, outliers
}
