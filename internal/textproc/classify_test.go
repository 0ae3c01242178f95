package textproc

import (
	"math/rand"
	"testing"
)

func trainingCorpus(rng *rand.Rand) []string {
	var msgs []string
	for i := 0; i < 100; i++ {
		msgs = append(msgs, "invoke service "+randID(rng)+" ok")
		msgs = append(msgs, "heartbeat ok")
	}
	for i := 0; i < 40; i++ {
		msgs = append(msgs, "session opened for "+randID(rng))
	}
	return msgs
}

func TestTrainAndClassify(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := Train(trainingCorpus(rng), 30)
	if n := len(c.templates); n < 3 {
		t.Fatalf("templates = %d", n)
	}
	id, ok := c.Classify("invoke service zzz999 ok")
	if !ok {
		t.Fatal("invocation message not classified")
	}
	if got := c.Template(id).String(); got != "invoke service * ok" {
		t.Errorf("template = %q", got)
	}
	if _, ok := c.Classify("totally unseen message shape with many words"); ok {
		t.Error("outlier classified")
	}
	// Fixed template without wildcards.
	hb, ok := c.Classify("heartbeat ok")
	if !ok || c.Template(hb).String() != "heartbeat ok" {
		t.Errorf("heartbeat class = %v %v", hb, ok)
	}
}

func TestClassCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	corpus := trainingCorpus(rng)
	c := Train(corpus, 30)
	counts, outliers := c.ClassCounts(corpus)
	var sum int
	for _, n := range counts {
		sum += n
	}
	if sum+outliers != len(corpus) {
		t.Errorf("sum %d + outliers %d != corpus %d", sum, outliers, len(corpus))
	}
	if outliers > len(corpus)/10 {
		t.Errorf("outliers = %d, training corpus should mostly classify", outliers)
	}
}

func TestClassifierLengthIndex(t *testing.T) {
	// A message can only match templates of its own token length.
	c := NewClassifier([]Template{
		{Tokens: []string{"a", Wildcard}},
		{Tokens: []string{"a", Wildcard, "c"}},
	})
	if id, ok := c.Classify("a b"); !ok || id != 0 {
		t.Errorf("2-token match = %d %v", id, ok)
	}
	if id, ok := c.Classify("a b c"); !ok || id != 1 {
		t.Errorf("3-token match = %d %v", id, ok)
	}
	if _, ok := c.Classify("a b c d"); ok {
		t.Error("4 tokens should not match")
	}
}

func TestClassifierFirstMatchWins(t *testing.T) {
	c := NewClassifier([]Template{
		{Tokens: []string{"x", Wildcard}},
		{Tokens: []string{"x", "y"}},
	})
	if id, _ := c.Classify("x y"); id != 0 {
		t.Errorf("first match id = %d", id)
	}
}
