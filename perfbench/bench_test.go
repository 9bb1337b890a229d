package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	cases := []struct {
		n  int
		p  float64
		ok bool
	}{
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{19, 0.5, false}, {20, 0.5, true},
	}
	for _, c := range cases {
		if _, ok := tailPercentile(xs[:c.n], c.p); ok != c.ok {
			t.Errorf("tailPercentile(%d samples, p%g) reported = %v, want %v", c.n, c.p*100, ok, c.ok)
		}
	}
	if v, _ := tailPercentile(xs[:100], 0.9); math.Abs(v-89.1) > 1e-9 {
		t.Errorf("p90 of 0..99 = %v, want 89.1 (linear interpolation)", v)
	}
	if m := median([]float64{4, 1, 3, 2}); math.Abs(m-2.5) > 1e-9 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestMedianIsHarrellDavis checks the median estimator against values
// computed by hand and its smoothness across a gap between clusters.
func TestMedianIsHarrellDavis(t *testing.T) {
	if m := median([]float64{7}); m != 7 {
		t.Errorf("median of one sample = %v, want 7", m)
	}
	// n = 3: a = b = 2, weights I_{1/3}, I_{2/3} - I_{1/3}, 1 - I_{2/3}
	// with I_x(2,2) = 3x^2 - 2x^3: 7/27, 13/27, 7/27.
	if m, want := median([]float64{0, 0, 27}), 7.0; math.Abs(m-want) > 1e-9 {
		t.Errorf("median(0, 0, 27) = %v, want %v", m, want)
	}
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if m := median(xs); math.Abs(m-499) > 1e-6 {
		t.Errorf("median of 0..998 = %v, want 499", m)
	}
	// Two clusters, 10 and 20, with one more sample in the upper one:
	// the sample median jumps to 20, the estimate stays near the middle.
	var two []float64
	for i := 0; i < 100; i++ {
		two = append(two, 10)
	}
	for i := 0; i < 101; i++ {
		two = append(two, 20)
	}
	if m := median(two); m < 14 || m > 16 {
		t.Errorf("median of two even clusters = %v, want about 15", m)
	}
}

// TestOpenLoopLatencyFromDueTime drives five requests, all due at once,
// into a server that handles one at a time. An open loop sends them all
// on time and charges each the wait behind the ones before it; a closed
// loop would send them 20ms apart and report 20ms each.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	var mu sync.Mutex
	lat := make([]time.Duration, 5)
	lags := play(make([]time.Duration, 5), func(i int, due time.Time) {
		mu.Lock()
		time.Sleep(service)
		mu.Unlock()
		lat[i] = time.Since(due)
	})
	slices.Sort(lat)
	if lat[4] < 5*service {
		t.Errorf("slowest latency %v, want >= %v: latency must count from the due time", lat[4], 5*service)
	}
	for i, lag := range lags {
		if lag >= 3*service {
			t.Errorf("send %d lagged %v behind its due time: the generator waited on the server", i, lag)
		}
	}
}

func TestSLOCountsFailuresAndRefusalsAsMisses(t *testing.T) {
	limit := 100 * time.Millisecond
	outs := []outcome{
		{correct: true, latency: 50 * time.Millisecond},  // within
		{correct: true, latency: 100 * time.Millisecond}, // within: the limit is inclusive
		{correct: true, latency: 150 * time.Millisecond}, // too slow
		{refused: true},                         // 429
		{err: errors.New("submit: status 500")}, // failed
		{latency: 10 * time.Millisecond},        // fast but wrong
	}
	if got := sloRatio(outs, limit); got != 2.0/6 {
		t.Errorf("sloRatio = %v, want 2/6", got)
	}
}

// TestPoolBusyCountsWorkersInUse checks that a lone job keeps half of a
// two-worker pool busy, two at once all of it, a third only waits, idle
// gaps count nothing, and requests without a finished job (refusals,
// failed submissions) count nothing.
func TestPoolBusyCountsWorkersInUse(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	outs := []outcome{
		{sent: at(100), finished: at(200)}, // overlaps the next from 100 to 160
		{sent: at(0), finished: at(160)},
		{sent: at(120), finished: at(140)}, // a third in flight: waits
		{sent: at(300), finished: at(340)}, // after an idle gap
		{sent: at(250), refused: true},     // never ran
	}
	// 0-100 one job, 100-160 two or more, 160-200 one, 300-340 one:
	// 100/2 + 60 + 40/2 + 40/2.
	if got, want := poolBusy(outs, 2), 150*time.Millisecond; got != want {
		t.Errorf("poolBusy over 2 workers = %v, want %v", got, want)
	}
	// With one worker the pool is busy whenever any job is in flight.
	if got, want := poolBusy(outs, 1), 240*time.Millisecond; got != want {
		t.Errorf("poolBusy over 1 worker = %v, want %v", got, want)
	}
	if got := poolBusy(nil, 2); got != 0 {
		t.Errorf("poolBusy of no jobs = %v, want 0", got)
	}
}

func TestScheduleIsDeterministic(t *testing.T) {
	t.Chdir("..")
	twins, err := loadTwins()
	if err != nil {
		t.Fatal(err)
	}
	items := certItems(twins)
	gen := func(seed int64) []*request {
		s, err := schedule(rand.New(rand.NewSource(seed)), items, 4)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b, c := gen(7), gen(7), gen(8)
	if len(a) != int(4*fencedRate) {
		t.Fatalf("%d requests in 4s, want %v", len(a), 4*fencedRate)
	}
	for i := range a {
		if a[i].due != b[i].due || string(a[i].body) != string(b[i].body) {
			t.Fatalf("request %d differs between two schedules from one seed", i)
		}
	}
	mix := func(s []*request) []string {
		var out []string
		for _, q := range s {
			out = append(out, q.spec())
		}
		sort.Strings(out)
		return out
	}
	if !slices.Equal(mix(a), mix(c)) {
		t.Error("two seeds drew different request mixes; only order, times and source text may differ")
	}
	same := true
	for i := range a {
		same = same && a[i].due == c[i].due
	}
	if same {
		t.Error("two seeds gave the same arrival times")
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due || a[i].due >= 4*time.Second {
			t.Fatalf("arrival %d at %v is out of order or outside the phase", i, a[i].due)
		}
	}
}

func TestTwinVariantsAreDeterministicAndByteDifferent(t *testing.T) {
	t.Chdir("..")
	twins, err := loadTwins()
	if err != nil {
		t.Fatal(err)
	}
	for _, tw := range twins {
		v1, err := tw.variant(rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		v2, _ := tw.variant(rand.New(rand.NewSource(3)))
		if string(v1) != string(v2) {
			t.Errorf("%s: one seed gave two variants", tw.file)
		}
		if string(v1) == string(tw.src) {
			t.Errorf("%s: variant is byte-identical to the original", tw.file)
		}
	}
}

// TestMixFollowsTheServiceExamples pins the mix to its stated basis: the
// programs the service examples submit rank first, in order, the other
// size-2 instantiations before the size-1 ones, and the shares of "all"
// and inline-IR requests come out near allShare and irShare.
func TestMixFollowsTheServiceExamples(t *testing.T) {
	t.Chdir("..")
	twins, err := loadTwins()
	if err != nil {
		t.Fatal(err)
	}
	var progs []*certItem
	for _, it := range certItems(twins) {
		if !it.unfenced {
			progs = append(progs, it)
		}
	}
	ranked := popularity(rand.New(rand.NewSource(mixSeed)), progs)
	for i, name := range exampleRanks {
		if ranked[i].name != name {
			t.Errorf("rank %d is %s, want %s", i, ranked[i].name, name)
		}
	}
	for i := len(exampleRanks) + 1; i < len(ranked); i++ {
		if ranked[i].params.Size > ranked[i-1].params.Size {
			t.Errorf("rank %d (%s) is larger than rank %d (%s)", i, ranked[i].name, i-1, ranked[i-1].name)
		}
	}
	sched, err := schedule(rand.New(rand.NewSource(1)), certItems(twins), 100)
	if err != nil {
		t.Fatal(err)
	}
	all, ir := 0, 0
	for _, q := range sched {
		if q.strategy == "all" {
			all++
		}
		if q.kind == "ir" {
			ir++
		}
	}
	n := float64(len(sched))
	if got := float64(all) / n; math.Abs(got-allShare) > 0.05 {
		t.Errorf("%.3f of requests ask for all, want about %.3f", got, allShare)
	}
	if got := float64(ir) / n; math.Abs(got-irShare) > 0.05 {
		t.Errorf("%.3f of requests carry inline IR, want about %.3f", got, irShare)
	}
}

func TestZipfCountsSumAndDecrease(t *testing.T) {
	c := zipfCounts(22, 300)
	sum := 0
	for i, n := range c {
		sum += n
		if i > 0 && n > c[i-1] {
			t.Errorf("rank %d gets %d requests, more than rank %d's %d", i, n, i-1, c[i-1])
		}
	}
	if sum != 300 {
		t.Errorf("counts sum to %d, want 300", sum)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := time.Millisecond
	r := &recorder{spans: []span{
		{name: "root", start: 0, end: 10 * ms, parent: -1},
		{name: "a", start: 2 * ms, end: 5 * ms, parent: 0},
		{name: "b", start: 4 * ms, end: 8 * ms, parent: 0}, // overlaps a
		{name: "c", start: 5 * ms, end: 6 * ms, parent: 2},
	}}
	self := r.selfTimes()
	want := map[string]time.Duration{"root": 4 * ms, "a": 3 * ms, "b": 3 * ms, "c": 1 * ms}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, self[name], w)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	// Four values in [4, 8) and four in [8, 16): the median sits at the
	// top of the first bucket.
	if got := histQuantile([]int64{0, 0, 0, 4, 4}, 0.5); got != 8 {
		t.Errorf("median = %v, want 8", got)
	}
	if got := histQuantile(nil, 0.5); got != 0 {
		t.Errorf("median of no samples = %v, want 0", got)
	}
}

func TestExpectedCoversEveryItem(t *testing.T) {
	t.Chdir("..")
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	twins, err := loadTwins()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range certItems(twins) {
		v, ok := exp.Verdicts[it.name]
		if !ok {
			t.Errorf("%s: no expected verdict", it.name)
			continue
		}
		for name, status := range v {
			if it.unfenced != (status == "violation") {
				t.Errorf("%s/%s: expected %q contradicts the paper's guarantee", it.name, name, status)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// runs print in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for i, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %d %q has no implementation", i, w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s, the code %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
