package mc

// Crash-safety discipline for spilled seen-set runs, mirroring the
// baseline store's corruption tests: any damage to a sealed run on disk —
// truncation by a crashed writer, a flipped bit, outright deletion — must
// quarantine the run and degrade it to all-miss. A miss merely re-explores
// a state (wasted work, identical answers); a false "seen" would silently
// prune live states, so it must be impossible.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fenceplace/internal/store"
	"fenceplace/internal/tso"
)

// spilledShard builds a shard with n sealed-and-spilled fingerprints
// behind a real spill session rooted at dir.
func spilledShard(t *testing.T, dir string, n int) (*engine, *seenShard, *run) {
	t.Helper()
	e := testEngine()
	sp, err := store.NewSpillSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	e.spill = sp
	sh := &e.shards[0]
	sh.mu.Lock()
	for i := 0; i < n; i++ {
		sh.visit(e, 0, testFP(i), 0)
	}
	sh.seal(e, 0)
	r := sh.runs[0]
	sh.mu.Unlock()
	e.spillRun(sh, 0, r)
	if r.path == "" || r.data != nil || r.bad {
		t.Fatalf("run not cleanly spilled: path=%q ram=%d bad=%v", r.path, len(r.data), r.bad)
	}
	return e, sh, r
}

// corruptions are the damage modes every spilled run must survive.
var corruptions = []struct {
	name string
	do   func(t *testing.T, path string)
}{
	{"truncated", func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"bit-flipped", func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"header-clobbered", func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[0] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"deleted", func(t *testing.T, path string) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}},
}

// TestCorruptSpilledRunQuarantines damages a spilled run in every mode and
// checks the contract: every probe reads lostMask (seen, but covered for
// nothing, so never pruned), the run is marked bad exactly once, and —
// when the file still exists — it lands in the spill root's quarantine
// directory for post-mortem.
func TestCorruptSpilledRunQuarantines(t *testing.T) {
	const n = 2000
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			e, sh, r := spilledShard(t, root, n)
			c.do(t, r.path)

			sh.mu.Lock()
			for i := 0; i < n; i++ {
				if m, ok := sh.coldLookup(e, 0, testFP(i)); !ok || m != lostMask {
					t.Fatalf("probe %d: corrupt run answered mask %x (ok=%v), want lostMask", i, m, ok)
				}
			}
			if !r.bad {
				t.Error("corrupt run not marked bad")
			}
			if sh.stQuarantines != 1 {
				t.Errorf("quarantine count %d, want 1", sh.stQuarantines)
			}
			// The visit protocol downgrades the loss to re-exploration: the
			// state is expanded again with the arriving mask, re-inserted hot,
			// and pruned on the next encounter — never wrong pruning, and
			// not a second distinct state.
			if mask, need := sh.visit(e, 0, testFP(0), 0b0100); !need || mask != 0b0100 || e.seen.Load() != n {
				t.Fatalf("post-corruption visit: need=%v mask=%04b seen=%d, want re-expansion with 0100, %d states", need, mask, e.seen.Load(), n)
			}
			if _, need := sh.visit(e, 0, testFP(0), 0b0100); need {
				t.Fatal("re-inserted state not found hot")
			}
			sh.mu.Unlock()

			if c.name != "deleted" {
				quar, err := os.ReadDir(filepath.Join(root, "quarantine"))
				if err != nil || len(quar) != 1 {
					t.Fatalf("quarantine dir: %d files, err %v; want the corrupt run preserved", len(quar), err)
				}
				if !strings.Contains(quar[0].Name(), filepath.Base(r.path)) {
					t.Errorf("quarantined as %q, want the run file name %q in it", quar[0].Name(), filepath.Base(r.path))
				}
			}
			e.finishSeen()
		})
	}
}

// TestCorruptSpillDuringExploration runs a whole exploration against a
// spill directory whose runs are being corrupted underneath it (every run
// file truncated as soon as it appears, via a hostile session sweep after
// sealing is forced by a 1-byte budget) and checks the results still match
// the oracle. This is the end-to-end form of the quarantine contract:
// corruption may cost work, never answers.
func TestCorruptSpillDuringExploration(t *testing.T) {
	p := medium3()
	exact, err := Explore(p, []string{"t0", "t1", "t2"}, Config{Mode: tso.TSO, Workers: 1, ExactSeen: true})
	if err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	done := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Truncate every run file in sight to one byte.
			matches, _ := filepath.Glob(filepath.Join(root, "sess-*", "run-*.run"))
			for _, m := range matches {
				os.Truncate(m, 1)
			}
		}
	}()
	fp, err := Explore(p, []string{"t0", "t1", "t2"}, Config{
		Mode: tso.TSO, Workers: 1, SeenBudget: 1, SpillDir: root,
	})
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	sameKeys(t, "corrupted-spill vs exact outcomes", keySet(fp.Outcomes), keySet(exact.Outcomes))
	// Visit counts are NOT compared: a filter rebuild drops a quarantined
	// run's entries, and their states then count again. Outcomes must
	// still be exact.
}
