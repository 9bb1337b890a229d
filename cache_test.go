package fenceplace_test

// Tests for the persistent certification-baseline store: a warm cache
// directory must eliminate the SC exploration across analyzer sessions
// (the stand-in for separate processes — each session rebuilds the
// program from scratch and shares no memory with the last), and corrupt
// store entries must degrade to clean misses, never to wrong verdicts.
// The assertions ride on the model checker's process-wide exploration
// counters, which is safe because root-package tests do not run in
// parallel.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fenceplace"

	"fenceplace/internal/progs"
	"fenceplace/internal/store"
	"fenceplace/internal/telemetry"
)

// The model checker's process-wide exploration counters.
var (
	exploreRuns   = telemetry.Default().Counter("mc.explore_runs")
	scExploreRuns = telemetry.Default().Counter("mc.sc_explore_runs")
)

// freshControlResult builds dekker from scratch in a brand-new analyzer
// session, simulating a separate process working on the same corpus.
func freshControlResult() *fenceplace.Result {
	m := progs.ByName("dekker")
	pp := m.Defaults
	pp.Threads = 2
	pp.Size = 1
	return fenceplace.NewAnalyzer(m.Build(pp)).Analyze(fenceplace.Control)
}

func TestCertifyWarmStartsFromDiskCache(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "") // isolate from the operator's cache
	dir := t.TempDir()
	opt := fenceplace.WithCacheDir(dir)

	// Cold: the first session explores the SC side and populates the store.
	res := freshControlResult()
	scBefore := scExploreRuns.Value()
	repCold, err := fenceplace.CertifyCtx(context.Background(), res, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !repCold.Equivalent {
		t.Fatalf("cold certification not SC-equivalent: %s", repCold)
	}
	if d := scExploreRuns.Value() - scBefore; d != 1 {
		t.Fatalf("cold run performed %d SC explorations, want 1", d)
	}

	// Warm: a fresh session over a freshly built program must load the
	// baseline from disk — zero SC explorations, one TSO exploration —
	// and reach the identical verdict and SC state count.
	res2 := freshControlResult()
	scBefore = scExploreRuns.Value()
	allBefore := exploreRuns.Value()
	repWarm, err := fenceplace.CertifyCtx(context.Background(), res2, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := scExploreRuns.Value() - scBefore; d != 0 {
		t.Errorf("warm run performed %d SC explorations, want 0", d)
	}
	if d := exploreRuns.Value() - allBefore; d != 1 {
		t.Errorf("warm run performed %d explorations, want 1 (TSO only)", d)
	}
	if !repWarm.Equivalent {
		t.Fatalf("warm certification not SC-equivalent: %s", repWarm)
	}
	if repWarm.SCOutcomes != repCold.SCOutcomes || repWarm.VisitedSC != repCold.VisitedSC {
		t.Errorf("warm report (SC %d outcomes / %d visited) disagrees with cold (%d / %d)",
			repWarm.SCOutcomes, repWarm.VisitedSC, repCold.SCOutcomes, repCold.VisitedSC)
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Hits < 1 || s.Puts < 1 {
		t.Errorf("store stats %+v: expected at least one hit and one put", s)
	}
}

// TestCorruptCacheEntryDegradesToMiss damages the stored baseline between
// two sessions: the next certification must quarantine it, re-explore,
// and still produce the correct verdict — a corrupt cache can cost time,
// never soundness.
func TestCorruptCacheEntryDegradesToMiss(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "")
	dir := t.TempDir()
	opt := fenceplace.WithCacheDir(dir)

	if _, err := fenceplace.CertifyCtx(context.Background(), freshControlResult(), nil, opt); err != nil {
		t.Fatal(err)
	}

	// Bit-flip every stored entry.
	var flipped int
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".art") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)-1] ^= 0x01
		flipped++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil || flipped == 0 {
		t.Fatalf("corrupting store entries: flipped=%d err=%v", flipped, err)
	}

	st, _ := store.Open(dir)
	qBefore := st.Stats().Quarantined
	scBefore := scExploreRuns.Value()
	rep, err := fenceplace.CertifyCtx(context.Background(), freshControlResult(), nil, opt)
	if err != nil {
		t.Fatalf("certification over a corrupt cache failed: %v", err)
	}
	if !rep.Equivalent {
		t.Fatalf("certification over a corrupt cache changed the verdict: %s", rep)
	}
	if d := scExploreRuns.Value() - scBefore; d != 1 {
		t.Errorf("corrupt entry did not force a re-exploration: %d SC explorations, want 1", d)
	}
	if d := st.Stats().Quarantined - qBefore; d != 1 {
		t.Errorf("%d entries quarantined, want 1", d)
	}

	// The re-exploration wrote a good entry back: the next session is warm.
	scBefore = scExploreRuns.Value()
	if _, err := fenceplace.CertifyCtx(context.Background(), freshControlResult(), nil, opt); err != nil {
		t.Fatal(err)
	}
	if d := scExploreRuns.Value() - scBefore; d != 0 {
		t.Errorf("store not repopulated after quarantine: %d SC explorations, want 0", d)
	}
}
