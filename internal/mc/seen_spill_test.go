package mc

import (
	"encoding/binary"
	"fmt"
	"testing"

	"fenceplace/internal/ir"
	"fenceplace/internal/progs"
	"fenceplace/internal/store"
	"fenceplace/internal/tso"
)

// spillBudgets are the forced-spill thresholds the differential tests
// sweep: 1 byte seals the hot tier on every insert (every state becomes
// its own sealed run — the most hostile schedule for the cold tier),
// 4 KiB seals every few dozen states, 1 MiB seals occasionally on the
// larger corpora, and -1 never seals (the pure hot-tier baseline).
var spillBudgets = []int64{1, 4 << 10, 1 << 20, -1}

// TestTwoLevelSeenMatchesExactSeen is the oracle check for the two-level
// seen set under forced spilling: across litmus programs and instrumented
// corpus kernels, every spill budget — including the 1-byte budget that
// seals on every insert — must reproduce exactly the outcome sets AND
// visit counts of the exact string-keyed oracle, at one and at four
// workers; a lost or stale sleep mask anywhere in the hot/cold/filter
// machinery shows up as a drift here.
func TestTwoLevelSeenMatchesExactSeen(t *testing.T) {
	type tc struct {
		name    string
		prog    *ir.Program
		threads []string
	}
	cases := []tc{
		{"sb", sb(false), []string{"t0", "t1"}},
		{"sb+f", sb(true), []string{"t0", "t1"}},
		{"mp", mp(), []string{"t0", "t1"}},
		{"lb", lb(), []string{"t0", "t1"}},
		{"ring3", medium3(), []string{"t0", "t1", "t2"}},
	}
	for _, name := range []string{"dekker", "peterson"} {
		m := progs.ByName(name)
		pp := m.Defaults
		pp.Threads = 2
		pp.Size = 1
		pp.Manual = true
		cases = append(cases, tc{name + "/manual", m.Build(pp), nil})
	}
	spillDir := t.TempDir()
	for _, c := range cases {
		for _, mode := range []tso.Mode{tso.TSO, tso.SC} {
			exact, err := Explore(c.prog, c.threads, Config{Mode: mode, Workers: 1, ExactSeen: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range spillBudgets {
				t.Run(fmt.Sprintf("%s/%s/budget=%d", c.name, mode, budget), func(t *testing.T) {
					for _, workers := range []int{1, 4} {
						fp, err := Explore(c.prog, c.threads, Config{
							Mode: mode, Workers: workers, SeenBudget: budget, SpillDir: spillDir,
						})
						if err != nil {
							t.Fatal(err)
						}
						if fp.Truncated || exact.Truncated {
							t.Fatal("exploration truncated")
						}
						sameKeys(t, "two-level vs exact outcomes", keySet(fp.Outcomes), keySet(exact.Outcomes))
						for k, vec := range exact.Outcomes {
							got := fp.Outcomes[k]
							if len(got) != len(vec) {
								t.Fatalf("outcome %s: vector length %d vs %d", k, len(got), len(vec))
							}
							for i := range vec {
								if got[i] != vec[i] {
									t.Fatalf("outcome %s: globals %v vs %v", k, got, vec)
								}
							}
						}
						if fp.Visited != exact.Visited {
							t.Errorf("%d workers: visit counts diverge: two-level %d, exact %d", workers, fp.Visited, exact.Visited)
						}
					}
				})
			}
		}
	}
}

// TestTwoLevelSeenMatchesExactSeenRandom fuzzes flat random programs
// through the 1-byte forced-spill budget (a fresh generator seed, so the
// shapes differ from the other differentials): maximum seal pressure over
// unpredictable sleep-set interleavings.
func TestTwoLevelSeenMatchesExactSeenRandom(t *testing.T) {
	spillDir := t.TempDir()
	progsByName := randomPrograms(20260807, 15)
	for name, p := range progsByName {
		for _, mode := range []tso.Mode{tso.TSO, tso.SC} {
			exact, err := Explore(p, []string{"t0", "t1"}, Config{Mode: mode, Workers: 1, ExactSeen: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				fp, err := Explore(p, []string{"t0", "t1"}, Config{
					Mode: mode, Workers: workers, SeenBudget: 1, SpillDir: spillDir,
				})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/%s/workers=%d", name, mode, workers)
				sameKeys(t, label+" two-level vs exact", keySet(fp.Outcomes), keySet(exact.Outcomes))
				if fp.Visited != exact.Visited {
					t.Errorf("%s: visit counts diverge: two-level %d, exact %d", label, fp.Visited, exact.Visited)
				}
			}
		}
	}
}

// TestTwoLevelSeenSpillsConcurrently re-runs one differential with the
// full worker pool and a forcing budget: outcome sets and the visit count
// must survive concurrent sealing, spilling and cold probing.
func TestTwoLevelSeenSpillsConcurrently(t *testing.T) {
	p := medium3()
	exact, err := Explore(p, []string{"t0", "t1", "t2"}, Config{Mode: tso.TSO, Workers: 1, ExactSeen: true})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := Explore(p, []string{"t0", "t1", "t2"}, Config{
		Mode: tso.TSO, SeenBudget: 1 << 10, SpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sameKeys(t, "concurrent two-level vs exact outcomes", keySet(fp.Outcomes), keySet(exact.Outcomes))
	if fp.Visited != exact.Visited {
		t.Errorf("visit counts diverge: concurrent two-level %d, exact %d", fp.Visited, exact.Visited)
	}
}

// testFP derives a deterministic fingerprint stream for the unit tests.
func testFP(i int) h128 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	return hash128(b[:])
}

// testEngine is a bare engine for seen-set unit tests: unbounded budget,
// no spill session unless the test installs one.
func testEngine() *engine {
	e := &engine{}
	e.shardBudget, e.hotMaxSlots = seenBudget(Config{SeenBudget: -1})
	return e
}

// TestHotProbeAllocFree pins the hot-tier probe path at zero allocations
// per probe: hits on present fingerprints, misses on absent ones, and —
// with a sealed cold tier behind an in-RAM run — filter-rejected cold
// misses and cold hits alike.
func TestHotProbeAllocFree(t *testing.T) {
	e := testEngine()
	sh := &e.shards[0]
	const n = 1000
	sh.mu.Lock()
	for i := 0; i < n; i++ {
		sh.visit(e, 0, testFP(i), 0)
	}
	sh.mu.Unlock()

	probe := func(name string, fn func()) {
		t.Helper()
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per probe, want 0", name, allocs)
		}
	}
	i := 0
	probe("hot hit", func() {
		sh.mu.Lock()
		if _, need := sh.visit(e, 0, testFP(i%n), 0); need {
			t.Fatal("present fingerprint reported unseen")
		}
		sh.mu.Unlock()
		i++
	})
	j := 0
	probe("miss", func() {
		sh.mu.Lock()
		// Probing the cold path directly keeps the table from filling with
		// the probes themselves.
		if _, ok := sh.coldLookup(e, 0, testFP(n+j)); ok {
			t.Fatal("absent fingerprint reported cold-seen")
		}
		sh.mu.Unlock()
		j++
	})

	// Seal: everything moves cold (in RAM — no spill session installed).
	sh.mu.Lock()
	sh.seal(e, 0)
	if len(sh.runs) != 1 || sh.runs[0].n != n {
		t.Fatalf("seal produced %d runs (first n=%d), want 1 run of %d", len(sh.runs), sh.runs[0].n, n)
	}
	sh.mu.Unlock()
	k := 0
	probe("cold hit", func() {
		sh.mu.Lock()
		if _, ok := sh.coldLookup(e, 0, testFP(k%n)); !ok {
			t.Fatal("sealed fingerprint not found in cold tier")
		}
		sh.mu.Unlock()
		k++
	})
	l := 0
	probe("cold miss", func() {
		sh.mu.Lock()
		if _, ok := sh.coldLookup(e, 0, testFP(n+l)); ok {
			t.Fatal("absent fingerprint reported cold-seen")
		}
		sh.mu.Unlock()
		l++
	})
}

// TestSpilledProbeAllocFree pins the probe path over a run that has
// actually gone to disk: after the first block read warms the shard's
// scratch buffer, spilled cold hits and misses allocate nothing.
func TestSpilledProbeAllocFree(t *testing.T) {
	e := testEngine()
	sp, err := store.NewSpillSession(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e.spill = sp
	sh := &e.shards[0]
	const n = 5000
	sh.mu.Lock()
	for i := 0; i < n; i++ {
		sh.visit(e, 0, testFP(i), 0)
	}
	sh.seal(e, 0)
	r := sh.runs[0]
	sh.mu.Unlock()
	e.spillRun(sh, 0, r)
	if r.path == "" || r.data != nil {
		t.Fatalf("run not spilled: path=%q data=%d bytes", r.path, len(r.data))
	}

	// Warm: first probe opens the file and sizes the scratch buffer.
	sh.mu.Lock()
	if _, ok := sh.coldLookup(e, 0, testFP(0)); !ok {
		t.Fatal("spilled fingerprint not found")
	}
	sh.mu.Unlock()
	k := 0
	if allocs := testing.AllocsPerRun(100, func() {
		sh.mu.Lock()
		if _, ok := sh.coldLookup(e, 0, testFP(k%n)); !ok {
			t.Fatal("spilled fingerprint not found")
		}
		sh.mu.Unlock()
		k++
	}); allocs != 0 {
		t.Errorf("spilled cold hit: %v allocs per probe, want 0", allocs)
	}
	e.finishSeen()
}

// TestSealPreservesSleepMasks drives the mask-narrowing protocol across a
// seal boundary: a state first seen with a permissive sleep mask, sealed,
// then reached with a mask that does not cover it must be expanded again
// with the intersection of the two masks and store it — the shadow-entry
// discipline the differential tests rely on, checked here directly. Only
// the first sighting counts as a distinct state.
func TestSealPreservesSleepMasks(t *testing.T) {
	e := testEngine()
	sh := &e.shards[0]
	h := testFP(42)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	if mask, need := sh.visit(e, 0, h, 0b1100); !need || mask != 0b1100 {
		t.Fatalf("first visit: need=%v mask=%04b, want true 1100", need, mask)
	}
	sh.seal(e, 0)
	// Stored 1100, probe 0110: bit 1000 is no longer slept, so the state
	// is expanded again with the intersection 0100.
	mask, need := sh.visit(e, 0, h, 0b0110)
	if !need || mask != 0b0100 {
		t.Fatalf("post-seal narrowing: need=%v mask=%04b, want true 0100", need, mask)
	}
	// The narrowed mask (0100) now lives in the hot shadow; a probe with
	// 0110 is covered, a probe with 0000 narrows it again.
	if _, need := sh.visit(e, 0, h, 0b0110); need {
		t.Fatal("narrowed mask not honored: covered probe re-expanded")
	}
	mask, need = sh.visit(e, 0, h, 0)
	if !need || mask != 0 {
		t.Fatalf("final narrowing: need=%v mask=%04b, want true 0000", need, mask)
	}
	if n := e.seen.Load(); n != 1 {
		t.Errorf("one state counted %d times", n)
	}
}

// TestFilterRebuildKeepsEverything forces the cuckoo filter through many
// seals (and therefore growth rebuilds) and checks no sealed fingerprint
// was lost: the filter must stay free of false negatives because a false
// negative silently double-counts a state.
func TestFilterRebuildKeepsEverything(t *testing.T) {
	e := testEngine()
	e.shardBudget = 1 // seal on every insert: one run per fingerprint
	sh := &e.shards[0]
	const n = 3000
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := 0; i < n; i++ {
		sh.visit(e, 0, testFP(i), 0)
	}
	if len(sh.runs) < n/2 {
		t.Fatalf("forced sealing produced only %d runs for %d states", len(sh.runs), n)
	}
	for i := 0; i < n; i++ {
		if _, need := sh.visit(e, 0, testFP(i), 0); need {
			t.Fatalf("fingerprint %d lost across %d runs and filter rebuilds", i, len(sh.runs))
		}
	}
}
