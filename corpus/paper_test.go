package corpus_test

// Tests of the paper's evaluation as the corpus Runner produces it: the
// rendered tables are pinned byte for byte against testdata/*.golden, and
// the shapes the paper reports (Figs. 7–10) are asserted on the report
// data itself.

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fenceplace"
	"fenceplace/corpus"

	"fenceplace/internal/progs"
)

var (
	evalOnce sync.Once
	evalRep  *corpus.Report
	evalErr  error
)

// evalReport runs the evaluation set once per test binary with one
// simulator seed, as `paperbench` does by default. The Runner verifies
// every fence plan and fails a row whose instrumented build fails under
// TSO, so a report at all means both checks passed.
func evalReport(t *testing.T) *corpus.Report {
	t.Helper()
	evalOnce.Do(func() {
		runner := corpus.Runner{Seeds: 1}
		evalRep, evalErr = runner.Run(context.Background(), corpus.EvalSource())
	})
	if evalErr != nil {
		t.Fatal(evalErr)
	}
	return evalRep
}

func variant(t *testing.T, r *corpus.Row, name string) *corpus.Variant {
	t.Helper()
	for i := range r.Variants {
		if r.Variants[i].Name == name {
			return &r.Variants[i]
		}
	}
	t.Fatalf("%s: no %s variant", r.Program, name)
	return nil
}

func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// golden compares a rendered table with testdata/<name>.golden. The files
// hold `GOMAXPROCS=1 paperbench -<name>` output minus the final newline
// fmt.Println adds.
func golden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from testdata/%s.golden:\n--- got ---\n%s\n--- want ---\n%s", name, name, got, want)
	}
}

// TestPaperTablesGolden pins every table of the evaluation byte for byte.
func TestPaperTablesGolden(t *testing.T) {
	rep := evalReport(t)
	golden(t, "table2", corpus.Table2())
	golden(t, "fig2", corpus.Fig2())
	golden(t, "fig7", corpus.Fig7(rep))
	golden(t, "fig8", corpus.Fig8(rep))
	golden(t, "fig9", corpus.Fig9(rep))
	golden(t, "manual", corpus.ManualTable(rep))
	fig10, err := corpus.Fig10(rep)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "fig10", fig10)
}

// TestCertTableGolden pins the certification table, state counts
// included, at the default worker count: a count is the number of distinct
// states, the same at any GOMAXPROCS.
func TestCertTableGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runner := corpus.Runner{Certify: true, Options: []fenceplace.Option{
		fenceplace.WithMaxStates(1 << 21), fenceplace.WithCacheDir(""),
	}}
	rep, err := runner.Run(context.Background(), corpus.CertSource())
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "cert", corpus.CertTable(rep))
}

func TestPlansVerifyAcrossCorpus(t *testing.T) {
	rep := evalReport(t)
	if len(rep.Rows) != corpus.EvalSource().Len() {
		t.Fatalf("report has %d rows, want %d", len(rep.Rows), corpus.EvalSource().Len())
	}
	for i := range rep.Rows {
		if n := len(rep.Rows[i].Variants); n != 4 {
			t.Errorf("%s: %d variants, want 4 (Manual + 3 verified strategies)", rep.Rows[i].Program, n)
		}
	}
}

// TestInstrumentedProgramsCorrectUnderTSO checks the central soundness
// claim: programs instrumented by any variant keep their assertions under
// TSO. The Runner fails the whole run on a failing TSO execution, so every
// variant must carry its simulated cycle count.
func TestInstrumentedProgramsCorrectUnderTSO(t *testing.T) {
	for _, r := range evalReport(t).Rows {
		for _, v := range r.Variants {
			if len(v.Cycles) != 1 || v.Cycles[0] <= 0 {
				t.Errorf("%s/%s: cycles %v, want one simulated run", r.Program, v.Name, v.Cycles)
			}
		}
	}
}

func TestFig7Shape(t *testing.T) {
	// The paper's Figure 7 shape: Control flags far fewer reads than
	// Address+Control, which flags far fewer than everything.
	rows := evalReport(t).Rows
	var ctl, ac []float64
	for i := range rows {
		r := &rows[i]
		if r.EscReads == 0 {
			t.Fatalf("%s: no escaping reads", r.Program)
		}
		c := float64(variant(t, r, "Control").Acquires) / float64(r.EscReads)
		a := float64(variant(t, r, "Address+Control").Acquires) / float64(r.EscReads)
		if c > a+1e-9 {
			t.Errorf("%s: Control ratio %.2f exceeds A+C ratio %.2f", r.Program, c, a)
		}
		if a > 1 || c > 1 {
			t.Errorf("%s: acquire ratio above 1", r.Program)
		}
		if c == 0 {
			t.Errorf("%s: no control acquires at all — every program synchronizes", r.Program)
		}
		ctl = append(ctl, c)
		ac = append(ac, a)
	}
	gc, ga := geomean(ctl), geomean(ac)
	if !(gc > 0.05 && gc < 0.45) {
		t.Errorf("Control geomean %.2f outside the paper's ballpark (≈0.18)", gc)
	}
	if !(ga > 0.30 && ga < 0.90) {
		t.Errorf("A+C geomean %.2f outside the paper's ballpark (≈0.60)", ga)
	}
	if ga <= gc {
		t.Errorf("A+C geomean %.2f not above Control geomean %.2f", ga, gc)
	}
}

func TestFig8Shape(t *testing.T) {
	rows := evalReport(t).Rows
	rrDominant := 0
	for i := range rows {
		r := &rows[i]
		full := variant(t, r, "Pensieve").Orderings
		ctl := variant(t, r, "Control").Orderings
		ac := variant(t, r, "Address+Control").Orderings
		if ctl.Total > ac.Total || ac.Total > full.Total {
			t.Errorf("%s: ordering monotonicity violated: %d / %d / %d",
				r.Program, ctl.Total, ac.Total, full.Total)
		}
		// Pruning must not touch →w orderings.
		if ctl.RW != full.RW || ctl.WW != full.WW {
			t.Errorf("%s: pruning modified →w orderings", r.Program)
		}
		if full.RR > full.Total/2 {
			rrDominant++
		}
	}
	// The paper: r→r orderings form the majority in all but two programs.
	if rrDominant < len(rows)*2/3 {
		t.Errorf("r->r dominant in only %d of %d programs", rrDominant, len(rows))
	}
}

func TestFig9Shape(t *testing.T) {
	rows := evalReport(t).Rows
	for i := range rows {
		r := &rows[i]
		p := variant(t, r, "Pensieve").FullFences
		a := variant(t, r, "Address+Control").FullFences
		c := variant(t, r, "Control").FullFences
		if c > a || a > p {
			t.Errorf("%s: fence monotonicity violated: Control %d, A+C %d, Pensieve %d",
				r.Program, c, a, p)
		}
		if p == 0 {
			t.Errorf("%s: Pensieve placed no fences", r.Program)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	rep := evalReport(t)
	table, err := corpus.Fig10(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table, "geomean") {
		t.Fatal("missing geomean row")
	}
	// Recompute the geomeans directly for the shape assertions.
	var pens, ac, ctl []float64
	for i := range rep.Rows {
		r := &rep.Rows[i]
		cycles := func(name string) float64 { return float64(variant(t, r, name).Cycles[0]) }
		base := cycles("Manual")
		pens = append(pens, cycles("Pensieve")/base)
		ac = append(ac, cycles("Address+Control")/base)
		ctl = append(ctl, cycles("Control")/base)
	}
	gp, ga, gc := geomean(pens), geomean(ac), geomean(ctl)
	if !(gp >= ga-0.02 && ga >= gc-0.02) {
		t.Errorf("normalized time ordering broken: Pensieve %.2f, A+C %.2f, Control %.2f", gp, ga, gc)
	}
	if gp < 1.0 {
		t.Errorf("Pensieve (%.2f) should be slower than manual", gp)
	}
	if gc >= gp {
		t.Errorf("Control (%.2f) shows no speedup over Pensieve (%.2f)", gc, gp)
	}
}

// TestCertificationColumn model-checks the fence placements of two
// Dekker-family kernels at a reduced instantiation: every variant must be
// certified SC-equivalent, and the unfenced legacy build — run as the
// Manual column — must not be.
func TestCertificationColumn(t *testing.T) {
	runner := corpus.Runner{Certify: true, Options: []fenceplace.Option{
		fenceplace.WithMaxStates(1 << 20), fenceplace.WithCacheDir(""),
	}}
	for _, name := range []string{"dekker", "peterson"} {
		m := progs.ByName(name)
		pp := m.Defaults
		pp.Threads = 2
		pp.Size = 1
		pm := pp
		pm.Manual = true
		legacy := m.Build(pp)
		for _, tc := range []struct {
			manual *fenceplace.Program
			want   string // the Manual column's verdict
		}{
			{m.Build(pm), corpus.CertCertified},
			{legacy, corpus.CertViolation}, // the negative control
		} {
			rep, err := runner.Run(context.Background(), corpus.SingleSource(name, legacy, tc.manual))
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Rows[0].Variants {
				want := corpus.CertCertified
				if v.Name == "Manual" {
					want = tc.want
				}
				if v.Cert.Status != want {
					t.Errorf("%s/%s (manual verdict %s): %s, want %s", name, v.Name, tc.want, v.Cert.Cell(), want)
				}
			}
		}
	}
}
