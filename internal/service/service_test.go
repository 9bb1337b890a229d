package service

// Manager-level semantics: single-flight coalescing (N identical
// concurrent submissions cost one SC exploration and share byte-identical
// rows), waiter-cancellation rules, budget clamping, queue backpressure,
// warm-cache restarts and graceful drain. Everything here must hold under
// -race; the suite deliberately drives real explorations through the
// public pipeline rather than stubbing the runner, so the coalescing
// accounting is pinned against the model checker's own metrics.

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"fenceplace"
	"fenceplace/corpus"
	"fenceplace/internal/telemetry"
)

// The model checker's process-wide exploration counters.
var (
	exploreRuns   = telemetry.Default().Counter("mc.explore_runs")
	scExploreRuns = telemetry.Default().Counter("mc.sc_explore_runs")
)

// newTestManager builds a manager with a neutral environment: no ambient
// cache or spill directory can leak into the jobs.
func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	t.Setenv("FENCEPLACE_CACHE_DIR", "")
	t.Setenv("FENCEPLACE_SPILL_DIR", "")
	m := NewManager(cfg)
	t.Cleanup(m.Close)
	return m
}

// blockerRequest is a deliberately heavy job (szymanski's reduced
// instantiation explores on the order of a million states) used to occupy
// a one-worker pool while the interesting submissions queue up behind it.
func blockerRequest() *Request {
	return &Request{
		Corpus:     "szymanski",
		Budget:     Budget{MaxStates: 1 << 26},
		ProgressMS: 10,
	}
}

// dekkerRequest is the fast identical submission the coalescing tests
// replicate.
func dekkerRequest() *Request {
	return &Request{Corpus: "dekker", Strategy: "control"}
}

// startBlocker submits the blocker and waits until its SC exploration has
// demonstrably begun (first progress heartbeat), so the mc exploration
// counters have already ticked for it. Returns the blocker's claim.
func startBlocker(t *testing.T, m *Manager) *Claim {
	t.Helper()
	claim, coalesced, err := m.Submit(blockerRequest())
	if err != nil {
		t.Fatalf("blocker submit: %v", err)
	}
	if coalesced {
		t.Fatal("blocker submission unexpectedly coalesced")
	}
	sub, detach := claim.Job().Subscribe()
	defer detach()
	for {
		select {
		case ev := <-sub:
			if ev.Mode == "SC" {
				return claim
			}
		case <-claim.Job().Done():
			t.Fatal("blocker finished before emitting a heartbeat; it is not blocking anything")
		case <-time.After(10 * time.Second):
			t.Fatal("blocker never started exploring")
		}
	}
}

func encodeRows(t *testing.T, rep *corpus.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCoalescingSingleFlight is the tentpole's acceptance test: with one
// worker pinned down by a blocker, N identical submissions must collapse
// into a single job — one SC exploration for all of them, every waiter
// handed byte-identical report rows.
func TestCoalescingSingleFlight(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, MaxStatesCap: 1 << 26})

	scBefore := scExploreRuns.Value()
	runsBefore := exploreRuns.Value()
	coalescedBefore := mCoalesced.Value()

	blocker := startBlocker(t, m)

	const N = 8
	claims := make([]*Claim, N)
	for i := 0; i < N; i++ {
		c, coalesced, err := m.Submit(dekkerRequest())
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		if coalesced != (i > 0) {
			t.Errorf("submission %d: coalesced = %v, want %v", i, coalesced, i > 0)
		}
		claims[i] = c
	}
	shared := claims[0].Job()
	for i, c := range claims {
		if c.Job() != shared {
			t.Fatalf("submission %d landed on job %s, want shared job %s", i, c.Job().ID(), shared.ID())
		}
	}
	if d := mCoalesced.Value() - coalescedBefore; d != N-1 {
		t.Errorf("service.coalesced_hits advanced by %d, want %d", d, N-1)
	}

	// Free the worker: the blocker's only waiter leaves, so the blocker is
	// cancelled and the shared job runs.
	blocker.Release()

	select {
	case <-shared.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("shared job never finished")
	}
	rep, err := shared.Result()
	if err != nil {
		t.Fatalf("shared job failed: %v", err)
	}

	// Exactly one SC exploration for the N submissions (plus the blocker's
	// single started-then-abandoned one), and one TSO exploration for the
	// shared job's only variant.
	if d := scExploreRuns.Value() - scBefore; d != 2 {
		t.Errorf("SC explorations advanced by %d, want 2 (blocker + one shared exploration for %d submissions)", d, N)
	}
	// Blocker SC + shared SC + shared TSO; the blocker may have reached its
	// TSO pass before the release cancelled it.
	if d := exploreRuns.Value() - runsBefore; d != 3 && d != 4 {
		t.Errorf("explorations advanced by %d, want 3 (blocker SC + shared SC + shared TSO)", d)
	}

	// Every waiter serializes the same rows, byte for byte.
	want := encodeRows(t, rep)
	for i, c := range claims {
		r, err := c.Job().Result()
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
		if got := encodeRows(t, r); !bytes.Equal(got, want) {
			t.Errorf("waiter %d received different rows:\n%s\nvs\n%s", i, got, want)
		}
	}
	if len(rep.Rows) != 1 || len(rep.Rows[0].Variants) != 1 {
		t.Fatalf("unexpected report shape: %+v", rep)
	}
	if st := rep.Rows[0].Variants[0].Cert.Status; st != corpus.CertCertified {
		t.Errorf("dekker/Control certification = %q, want %q", st, corpus.CertCertified)
	}
}

// goSourceSB returns a store-buffering program in restricted real Go.
// The comment knob makes the bytes differ while the lowered IR — and so
// the coalescing key — stays identical.
func goSourceSB(comment string) string {
	return "package sb\n\n// " + comment + "\n\nimport \"sync\"\n\n" +
		"var (\n\tx int64\n\ty int64\n\tr0 int64\n\tr1 int64\n)\n\n" +
		"var wg sync.WaitGroup\n\n" +
		"func t0() {\n\tdefer wg.Done()\n\tx = 1\n\tr0 = y\n}\n\n" +
		"func t1() {\n\tdefer wg.Done()\n\ty = 1\n\tr1 = x\n}\n\n" +
		"func main() {\n\twg.Add(2)\n\tgo t0()\n\tgo t1()\n\twg.Wait()\n}\n"
}

// TestGoSourceSubmission pins the go_source request variant: the frontend
// lowers the submission, the job certifies it, and byte-different sources
// with identical lowerings single-flight onto one job — the coalescing
// key is the lowered IR's baseline key, not the source text.
func TestGoSourceSubmission(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, MaxStatesCap: 1 << 26})

	blocker := startBlocker(t, m)

	a, coalesced, err := m.Submit(&Request{GoSource: goSourceSB("first copy"), Strategy: "pensieve"})
	if err != nil {
		t.Fatalf("go_source submit: %v", err)
	}
	if coalesced {
		t.Error("first go_source submission unexpectedly coalesced")
	}
	b, coalesced, err := m.Submit(&Request{GoSource: goSourceSB("second copy, different bytes"), Strategy: "pensieve"})
	if err != nil {
		t.Fatalf("second go_source submit: %v", err)
	}
	if !coalesced {
		t.Error("byte-different source with identical lowering did not coalesce")
	}
	if a.Job() != b.Job() {
		t.Fatalf("submissions landed on jobs %s and %s, want one shared job", a.Job().ID(), b.Job().ID())
	}

	blocker.Release()
	select {
	case <-a.Job().Done():
	case <-time.After(30 * time.Second):
		t.Fatal("go_source job never finished")
	}
	rep, err := a.Job().Result()
	if err != nil {
		t.Fatalf("go_source job failed: %v", err)
	}
	if len(rep.Rows) != 1 || rep.Rows[0].Program != "sb" {
		t.Fatalf("unexpected report shape: %+v", rep)
	}
	if st := rep.Rows[0].Variants[0].Cert.Status; st != corpus.CertCertified {
		t.Errorf("sb/Pensieve certification = %q, want %q (full fences restore SC)", st, corpus.CertCertified)
	}
}

// TestCancelledWaiterKeepsSharedJob pins the coalescing cancellation rule:
// releasing one of two coalesced claims must not cancel the shared job —
// the surviving waiter still gets its verdict.
func TestCancelledWaiterKeepsSharedJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, MaxStatesCap: 1 << 26})
	blocker := startBlocker(t, m)

	a, _, err := m.Submit(dekkerRequest())
	if err != nil {
		t.Fatal(err)
	}
	b, coalesced, err := m.Submit(dekkerRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !coalesced || a.Job() != b.Job() {
		t.Fatal("second identical submission did not coalesce")
	}

	// One waiter walks away; the other still wants the result.
	a.Release()
	blocker.Release()

	j := b.Job()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("shared job never finished")
	}
	if st := j.State(); st != StateDone {
		t.Fatalf("shared job state = %s, want %s (a released waiter must not cancel it)", st, StateDone)
	}
	rep, err := j.Result()
	if err != nil || rep == nil {
		t.Fatalf("surviving waiter got (%v, %v), want a report", rep, err)
	}

	// The inverse: when the LAST waiter leaves, the job dies.
	blocker2 := startBlocker(t, m)
	c, _, err := m.Submit(dekkerRequest())
	if err != nil {
		t.Fatal(err)
	}
	lone := c.Job()
	c.Release()
	blocker2.Release()
	select {
	case <-lone.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("abandoned job never resolved")
	}
	if st := lone.State(); st != StateCancelled {
		t.Errorf("abandoned job state = %s, want %s", st, StateCancelled)
	}
}

// TestWarmCacheRestart is the PR 4 CI invariant transplanted onto the
// service: a second identical submission against a restarted manager
// sharing the same cache directory must perform zero SC explorations.
func TestWarmCacheRestart(t *testing.T) {
	dir := t.TempDir()
	opts := []fenceplace.Option{fenceplace.WithCacheDir(dir)}

	m1 := newTestManager(t, Config{Options: opts})
	c1, _, err := m1.Submit(dekkerRequest())
	if err != nil {
		t.Fatal(err)
	}
	<-c1.Job().Done()
	if rep, err := c1.Job().Result(); err != nil || rep == nil {
		t.Fatalf("cold run: (%v, %v)", rep, err)
	}
	if err := m1.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// "Restart": a fresh manager over the same store directory.
	scBefore := scExploreRuns.Value()
	m2 := newTestManager(t, Config{Options: opts})
	c2, _, err := m2.Submit(dekkerRequest())
	if err != nil {
		t.Fatal(err)
	}
	<-c2.Job().Done()
	rep, err := c2.Job().Result()
	if err != nil || rep == nil {
		t.Fatalf("warm run: (%v, %v)", rep, err)
	}
	if d := scExploreRuns.Value() - scBefore; d != 0 {
		t.Errorf("warm restart performed %d SC explorations, want 0 (baseline must come from %s)", d, dir)
	}
	if st := rep.Rows[0].Variants[0].Cert.Status; st != corpus.CertCertified {
		t.Errorf("warm verdict = %q, want %q", st, corpus.CertCertified)
	}
}

// TestBudgetClamping checks the server-side ceilings: oversized requests
// are clamped, absent budgets get the defaults, and the per-job deadline
// and state budgets actually bite.
func TestBudgetClamping(t *testing.T) {
	m := newTestManager(t, Config{
		MaxStatesCap:    1000,
		MemoryCapCeil:   1 << 20,
		MaxDeadline:     time.Minute,
		DefaultDeadline: time.Second,
	})
	spec, err := m.buildSpec(&Request{
		Corpus: "dekker",
		Budget: Budget{MaxStates: 1 << 40, MemoryCap: 1 << 30, DeadlineMS: int64(time.Hour / time.Millisecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if spec.maxStates != 1000 {
		t.Errorf("maxStates clamped to %d, want 1000", spec.maxStates)
	}
	if spec.memoryCap != 1<<20 {
		t.Errorf("memoryCap clamped to %d, want %d", spec.memoryCap, 1<<20)
	}
	if spec.deadline != time.Minute {
		t.Errorf("deadline clamped to %v, want 1m", spec.deadline)
	}
	spec, err = m.buildSpec(&Request{Corpus: "dekker"})
	if err != nil {
		t.Fatal(err)
	}
	if spec.maxStates != 1000 || spec.deadline != time.Second {
		t.Errorf("defaults = (%d states, %v), want (1000, 1s)", spec.maxStates, spec.deadline)
	}
}

// TestStateBudgetVerdict: an exhausted state budget must come back as the
// "budget" certification status — a truncated exploration is inconclusive,
// never a verdict and never a job failure.
func TestStateBudgetVerdict(t *testing.T) {
	m := newTestManager(t, Config{})
	c, _, err := m.Submit(&Request{Corpus: "dekker", Budget: Budget{MaxStates: 16}})
	if err != nil {
		t.Fatal(err)
	}
	<-c.Job().Done()
	rep, err := c.Job().Result()
	if err != nil {
		t.Fatalf("job failed outright: %v (truncation should be a row verdict)", err)
	}
	if st := rep.Rows[0].Variants[0].Cert.Status; st != corpus.CertBudget {
		t.Errorf("verdict under a 16-state budget = %q, want %q", st, corpus.CertBudget)
	}
}

// TestDeadlineEnforced: a job that cannot finish inside its clamped
// deadline fails with the deadline error instead of running forever.
func TestDeadlineEnforced(t *testing.T) {
	m := newTestManager(t, Config{MaxStatesCap: 1 << 26})
	c, _, err := m.Submit(&Request{
		Corpus: "szymanski",
		Budget: Budget{MaxStates: 1 << 26, DeadlineMS: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Job().Done():
	case <-time.After(20 * time.Second):
		t.Fatal("deadline-bounded job never resolved")
	}
	if st := c.Job().State(); st != StateFailed {
		t.Fatalf("state = %s, want %s", st, StateFailed)
	}
	if _, err := c.Job().Result(); err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Errorf("error = %v, want a deadline exceeded error", err)
	}
}

// TestQueueBackpressure: with one busy worker and a one-slot queue, a
// third distinct submission bounces with ErrQueueFull.
func TestQueueBackpressure(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueDepth: 1, MaxStatesCap: 1 << 26})
	rejectsBefore := mRejected.Value()
	blocker := startBlocker(t, m)
	defer blocker.Release()

	// Distinct budgets make distinct coalescing keys, so nothing coalesces.
	q1, _, err := m.Submit(&Request{Corpus: "dekker", Budget: Budget{MaxStates: 1001}})
	if err != nil {
		t.Fatalf("queued submission: %v", err)
	}
	defer q1.Release()
	_, _, err = m.Submit(&Request{Corpus: "dekker", Budget: Budget{MaxStates: 1002}})
	if err != ErrQueueFull {
		t.Fatalf("over-capacity submission returned %v, want ErrQueueFull", err)
	}
	if d := mRejected.Value() - rejectsBefore; d != 1 {
		t.Errorf("service.queue_rejects advanced by %d, want 1", d)
	}
}

// TestValidation rejects malformed submissions with descriptive errors.
func TestValidation(t *testing.T) {
	m := newTestManager(t, Config{})
	cases := []struct {
		req  Request
		want string
	}{
		{Request{}, "exactly one of"},
		{Request{Corpus: "dekker", Program: "func main() {}"}, "exactly one of"},
		{Request{Corpus: "dekker", GoSource: "package p"}, "exactly one of"},
		{Request{Program: "program p", GoSource: "package p"}, "exactly one of"},
		{Request{Corpus: "no-such-program"}, "unknown corpus program"},
		{Request{Corpus: "dekker", Strategy: "bogus"}, "unknown strategy"},
		{Request{Program: "not ir at all"}, "program:"},
		{Request{GoSource: "package p\n\nvar ch chan int64\n"}, "go_source:"},
	}
	for _, tc := range cases {
		_, _, err := m.Submit(&tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Submit(%+v) = %v, want error containing %q", tc.req, err, tc.want)
		}
	}
}

// TestDrainGraceful: a drain with headroom lets the in-flight job finish;
// submissions during and after the drain are refused with ErrDraining.
func TestDrainGraceful(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	c, _, err := m.Submit(dekkerRequest())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	if st := c.Job().State(); st != StateDone {
		t.Errorf("in-flight job after graceful drain = %s, want %s", st, StateDone)
	}
	if _, _, err := m.Submit(dekkerRequest()); err != ErrDraining {
		t.Errorf("post-drain submission returned %v, want ErrDraining", err)
	}
}

// TestDrainDeadlineCancels: when the drain budget expires, stragglers are
// cancelled rather than awaited, and Drain still leaves nothing running.
func TestDrainDeadlineCancels(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, MaxStatesCap: 1 << 26})
	blocker := startBlocker(t, m)
	defer blocker.Release()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := m.Drain(ctx)
	if err == nil {
		t.Fatal("drain of a blocked pool returned nil, want the deadline error")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("drain took %v to give up, want prompt cancellation", d)
	}
	j := blocker.Job()
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("blocked job still running after the drain deadline")
	}
	if st := j.State(); st != StateCancelled {
		t.Errorf("straggler state = %s, want %s", st, StateCancelled)
	}
}

// TestConcurrentMixedSubmissions hammers the manager with a mix of
// identical and distinct submissions under -race: every job resolves, and
// identical wait-pairs agree on their rows.
func TestConcurrentMixedSubmissions(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2})
	var wg sync.WaitGroup
	reqs := []*Request{
		{Corpus: "dekker"},
		{Corpus: "dekker"},
		{Corpus: "peterson"},
		{Corpus: "dekker", Strategy: "all"},
		{Corpus: "peterson"},
		{Corpus: "dekker"},
	}
	errs := make([]error, len(reqs))
	wg.Add(len(reqs))
	for i, r := range reqs {
		go func(i int, r *Request) {
			defer wg.Done()
			c, _, err := m.Submit(r)
			if err != nil {
				errs[i] = err
				return
			}
			<-c.Job().Done()
			_, errs[i] = c.Job().Result()
			c.Release()
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("submission %d: %v", i, err)
		}
	}
}
