package core

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// ModelDocument is the on-disk form of a mined dependency model: either an
// undirected application-pair model (approaches L1/L2) or a directed
// application→service model (approach L3), with free-form metadata about
// how it was mined. It is what cmd/depmine writes and downstream tooling
// (visualization, diffing against previous weeks) consumes.
type ModelDocument struct {
	// Technique identifies the miner ("l1", "l2", "l3", "baseline", ...).
	Technique string `json:"technique"`
	// Params records the mining parameters as free-form strings.
	Params map[string]string `json:"params,omitempty"`
	// Pairs is the undirected model (nil for app→service models).
	Pairs []Pair `json:"pairs,omitempty"`
	// Deps is the directed model (nil for pair models).
	Deps []AppServicePair `json:"deps,omitempty"`
}

// NewPairDocument builds a document from a pair set, sorted.
func NewPairDocument(technique string, s PairSet, params map[string]string) ModelDocument {
	return ModelDocument{Technique: technique, Params: params, Pairs: s.SortedPairs()}
}

// NewDepDocument builds a document from a dependency set, sorted.
func NewDepDocument(technique string, s AppServiceSet, params map[string]string) ModelDocument {
	return ModelDocument{Technique: technique, Params: params, Deps: s.SortedPairs()}
}

// PairSet reconstructs the pair set of the document.
func (d ModelDocument) PairSet() PairSet {
	out := make(PairSet, len(d.Pairs))
	for _, p := range d.Pairs {
		out[MakePair(p.A, p.B)] = true
	}
	return out
}

// DepSet reconstructs the dependency set of the document.
func (d ModelDocument) DepSet() AppServiceSet {
	out := make(AppServiceSet, len(d.Deps))
	for _, p := range d.Deps {
		out[p] = true
	}
	return out
}

// Validate checks structural invariants: a technique name, and exactly one
// of Pairs/Deps populated (both empty is allowed: an empty model).
func (d ModelDocument) Validate() error {
	if d.Technique == "" {
		return fmt.Errorf("core: model document without technique")
	}
	if len(d.Pairs) > 0 && len(d.Deps) > 0 {
		return fmt.Errorf("core: model document with both pairs and deps")
	}
	for _, p := range d.Pairs {
		if p.A == "" || p.B == "" || p.A > p.B {
			return fmt.Errorf("core: malformed pair %+v", p)
		}
	}
	for _, p := range d.Deps {
		if p.App == "" || p.Group == "" {
			return fmt.Errorf("core: malformed dependency %+v", p)
		}
	}
	return nil
}

// WriteModel writes the document as indented JSON.
func WriteModel(w io.Writer, d ModelDocument) error {
	if err := d.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadModel reads and validates a model document.
func ReadModel(r io.Reader) (ModelDocument, error) {
	var d ModelDocument
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return ModelDocument{}, fmt.Errorf("core: decode model: %w", err)
	}
	if err := d.Validate(); err != nil {
		return ModelDocument{}, err
	}
	return d, nil
}

// DiffModels compares two pair models and returns the pairs only in a and
// only in b — the "what changed since last week" view a moving landscape
// needs.
func DiffModels(a, b PairSet) (onlyA, onlyB []Pair) { return diffSets(a, b) }

// DiffDeps is DiffModels for directed dependency models.
func DiffDeps(a, b AppServiceSet) (onlyA, onlyB []AppServicePair) { return diffSets(a, b) }

func diffSets[T element[T]](a, b map[T]bool) (onlyA, onlyB []T) {
	for p := range a {
		if !b[p] {
			onlyA = append(onlyA, p)
		}
	}
	for p := range b {
		if !a[p] {
			onlyB = append(onlyB, p)
		}
	}
	slices.SortFunc(onlyA, T.compare)
	slices.SortFunc(onlyB, T.compare)
	return onlyA, onlyB
}
