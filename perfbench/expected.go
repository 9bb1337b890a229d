package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// expectedJSON is the hand-written oracle: the verdict of every
// certification the certify workloads and the service traffic make, and
// the size of each program's SC outcome set.
//
//go:embed expected.json
var expectedJSON []byte

type expectation struct {
	// Verdicts maps an item name to its variants' certification status
	// (corpus.Cert status strings; "Unfenced" names the legacy build).
	Verdicts map[string]map[string]string `json:"verdicts"`
	// SCOutcomes is the number of distinct SC final states of an item's
	// program; every certification of it must report this many.
	SCOutcomes map[string]int `json:"sc_outcomes"`
}

func loadExpected() (*expectation, error) {
	var e expectation
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// verdict is what one certification of an item produced, per variant.
type verdict struct {
	status     map[string]string // variant -> cert status
	scOutcomes map[string]int    // variant -> SC outcome count
	witness    map[string]bool   // variant -> a counterexample was produced
}

func newVerdict() *verdict {
	return &verdict{status: map[string]string{}, scOutcomes: map[string]int{}, witness: map[string]bool{}}
}

// check compares v against the expectation for item, restricted to the
// variants listed in want (all expected variants when want is nil). It
// returns a description of the first mismatch, or "".
func (e *expectation) check(item string, v *verdict, want []string) string {
	exp, ok := e.Verdicts[item]
	if !ok {
		return fmt.Sprintf("%s: no expected verdict", item)
	}
	if want == nil {
		for name := range exp {
			want = append(want, name)
		}
	}
	if len(v.status) != len(want) {
		return fmt.Sprintf("%s: %d variants certified, want %d", item, len(v.status), len(want))
	}
	for _, name := range want {
		got, ok := v.status[name]
		if !ok {
			return fmt.Sprintf("%s/%s: variant missing", item, name)
		}
		if got != exp[name] {
			return fmt.Sprintf("%s/%s: verdict %q, want %q", item, name, got, exp[name])
		}
		if got == "violation" && !v.witness[name] {
			return fmt.Sprintf("%s/%s: refuted without a counterexample", item, name)
		}
		if n, ok := e.SCOutcomes[item]; ok && v.scOutcomes[name] != n {
			return fmt.Sprintf("%s/%s: %d SC outcomes, want %d", item, name, v.scOutcomes[name], n)
		}
	}
	return ""
}
