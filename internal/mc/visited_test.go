package mc_test

import (
	"fmt"
	"slices"
	"testing"

	"fenceplace/internal/ir"
	"fenceplace/internal/litmus"
	"fenceplace/internal/mc"
	"fenceplace/internal/progs"
	"fenceplace/internal/tso"
)

// TestVisitedIndependentOfWorkers pins the exploration count to the
// program and the configuration: across the litmus set and the nine
// synchronization kernels (expert-fenced, two threads, size 1), in SC and
// TSO, Visited and the outcome keys must be the same at 1, 2 and 8
// workers, in repeated runs, and under the exact seen-set oracle. The
// expansion rule gives the least fixpoint of the sleep-mask equations, so
// no schedule of the workers can change which distinct states are
// reached.
func TestVisitedIndependentOfWorkers(t *testing.T) {
	type tc struct {
		name    string
		prog    *ir.Program
		threads []string
	}
	var cases []tc
	for _, lt := range litmus.All() {
		cases = append(cases, tc{lt.Name, lt.Prog, lt.Threads})
	}
	for _, m := range progs.All() {
		if m.Kind != progs.SyncKernel {
			continue
		}
		pp := m.Defaults
		pp.Threads, pp.Size, pp.Manual = 2, 1, true
		cases = append(cases, tc{m.Name, m.Build(pp), nil})
	}
	const repeats = 2
	for _, c := range cases {
		for _, mode := range []tso.Mode{tso.SC, tso.TSO} {
			t.Run(fmt.Sprintf("%s/%s", c.name, mode), func(t *testing.T) {
				explore := func(cfg mc.Config) *mc.StateSet {
					t.Helper()
					cfg.Mode = mode
					res, err := mc.Explore(c.prog, c.threads, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res.Truncated {
						t.Fatalf("%+v: truncated", cfg)
					}
					return res
				}
				want := explore(mc.Config{Workers: 1})
				check := func(label string, got *mc.StateSet) {
					t.Helper()
					if got.Visited != want.Visited {
						t.Errorf("%s: visited %d, 1 worker visited %d", label, got.Visited, want.Visited)
					}
					if !slices.Equal(got.Keys(), want.Keys()) {
						t.Errorf("%s: outcomes %v, 1 worker reached %v", label, got.Keys(), want.Keys())
					}
				}
				for r := 0; r < repeats; r++ {
					for _, w := range []int{1, 2, 8} {
						check(fmt.Sprintf("run %d, %d workers", r, w), explore(mc.Config{Workers: w}))
					}
				}
				check("exact seen set, 8 workers", explore(mc.Config{Workers: 8, ExactSeen: true}))
			})
		}
	}
}
