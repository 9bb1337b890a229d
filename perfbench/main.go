// Command perfbench is the repository's benchmark. It runs one workload
// in-process for a fixed time, checks every output against an
// independent oracle, and prints the workload's metrics as the last line
// of standard output:
//
//	bash perfbench/run.sh --workload paper-eval --seed 1 --seconds 28 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of the timed run; with
// --trace 1 it rebuilds the workload's pipeline from the layers' public
// calls, records a span around each call, writes the spans as a Chrome
// trace and reports the per-layer metrics. It exits non-zero on any wrong
// output. See NOTES.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run collects what one workload run measured and found wrong.
type run struct {
	attempted int
	failed    int      // errors, refusals and wrong outputs
	problems  []string // what was wrong, for the report
	metrics   map[string]metric
	notes     []string // sample counts and figures outside the metric set
}

func newRun() *run { return &run{metrics: make(map[string]metric)} }

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail records a wrong or missing output.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// problem records a check failure that is not tied to one attempt (a
// count that did not repeat, a layer prediction that did not hold).
func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// options are the command-line settings every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string      // scratch directory of this run, removed at exit
	traceOut string      // Chrome trace file of a traced run
	rss      *rssSampler // started when set-up ends
}

// duration is the measured phase length.
func (o *options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// rng returns a generator for one purpose of this run: the same seed and
// stream give the same sequence.
func (o *options) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(o.seed*1000003 + stream))
}

// endToEnd lists the metrics a timed run reports, in BENCHMARK.json
// order, with their units. Figures that apply to one workload only (a
// tail latency, the SLO share) are printed to stderr, not reported.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"throughput_per_s", "1/s"}, {"latency_ms_p50", "ms"}, {"rss_mb_p90", "MB"},
}

var workloads = map[string]func(*options, *run) error{
	"paper-eval":    paperEval,
	"certify-cold":  certifyCold,
	"certify-spill": certifySpill,
	"fenced-mixed":  fencedMixed,
}

func main() {
	o := &options{}
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper-eval | certify-cold | certify-spill | fenced-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	traceN := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: timed run reporting end-to-end metrics")
	flag.Parse()
	o.trace = *traceN != 0

	body, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds (workloads: %s)\n", o.workload, strings.Join(names, ", "))
		os.Exit(2)
	}
	// The program receives only generated inputs: no environment default
	// may point certification at a store or spill area outside this run.
	os.Unsetenv("FENCEPLACE_CACHE_DIR")
	os.Unsetenv("FENCEPLACE_SPILL_DIR")

	err := os.MkdirAll(".bench_build", 0o755)
	var work string
	if err == nil {
		work, err = os.MkdirTemp(".bench_build", "work-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	o.work = work
	o.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.json", o.workload, o.seed))

	r := newRun()
	err = body(o, r)
	rss90, rssOK := o.rss.stop()
	if rmErr := os.RemoveAll(work); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing scratch:", rmErr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if !o.trace {
		if rssOK {
			r.set("rss_mb_p90", rss90, "MB")
		}
		r.note("peak RSS %.1f MB", peakRSSMB())
	}
	os.Exit(report(o, r))
}

// rssEvery is the resident-set sampling period.
const rssEvery = 10 * time.Millisecond

// rssSampler records the process's resident set size every rssEvery
// from the end of set-up to the end of the run.
type rssSampler struct {
	quit, exited chan struct{}
	samples      []float64
}

// startRSS first collects the garbage set-up left and returns the freed
// pages to the system, so the samples describe what the measured phase
// holds, not how far the runtime has yet given back set-up's heap.
func startRSS() *rssSampler {
	runtime.GC()
	debug.FreeOSMemory()
	s := &rssSampler{quit: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(s.exited)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if v, err := rssMB(); err == nil {
				s.samples = append(s.samples, v)
			}
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the 90th percentile of the samples: the
// resident set the process stays under for nine tenths of the measured
// phase. ok is false with fewer than 100 samples or a nil sampler (the run
// failed in set-up). The peak depends on which heavy jobs of an open loop
// happen to overlap, so it is printed but not reported. The median and the
// mean are no steadier: the resident set swings between two levels as
// heavy jobs come and go (fenced-mixed spends a quarter of its time under
// 18 MB and a quarter over 32 MB), and how the time splits between them
// depends on when the garbage collector runs. The upper level is set by
// the heavy jobs themselves.
func (s *rssSampler) stop() (float64, bool) {
	if s == nil {
		return 0, false
	}
	close(s.quit)
	<-s.exited
	return tailPercentile(s.samples, 0.9)
}

// rssMB reads the current resident set size from /proc/self/statm.
func rssMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("statm: %q", data)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// report prints the human-readable summary to stderr and the result line
// to stdout, and returns the exit code: 1 when any output was wrong.
func report(o *options, r *run) int {
	mode := "timed"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(os.Stderr, "== %s (%s, seed %d, %gs): attempted %d, failed %d\n", o.workload, mode, o.seed, o.seconds, r.attempted, r.failed)
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "  note:", n)
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	if len(r.metrics) != len(want) {
		r.problem("reported %d metrics, want %d", len(r.metrics), len(want))
	}
	for _, m := range want {
		if got, ok := r.metrics[m.name]; !ok || got.Unit != m.unit {
			r.problem("metric %s missing or not in %s", m.name, m.unit)
		}
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "  WRONG:", p)
	}
	correct := r.failed == 0 && len(r.problems) == 0 && r.attempted > 0
	line, err := json.Marshal(result{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// A run sets up at least setupMinRepeats times, and keeps repeating a
// cheap set-up until setupMinTime has passed (at most setupMaxRepeats
// times): setup_s is the median, and a set-up of a millisecond or less
// needs many samples before its median stops moving with host noise.
const (
	setupMinRepeats = 3
	setupMaxRepeats = 200
	setupMinTime    = 200 * time.Millisecond
)

// timedSetup performs set-up repeatedly, discarding all but the last
// state, and records the median duration as setup_s. A traced run
// reports per-layer metrics only, so it sets up once. Memory sampling
// starts when set-up ends.
func timedSetup[T any](o *options, r *run, build func(rep int) (T, error), discard func(T)) (T, error) {
	var (
		last  T
		times []float64
	)
	began := time.Now()
	more := func(rep int) bool {
		if o.trace {
			return rep < 1
		}
		return rep < setupMinRepeats || (rep < setupMaxRepeats && time.Since(began) < setupMinTime)
	}
	for rep := 0; more(rep); rep++ {
		start := time.Now()
		st, err := build(rep)
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(start).Seconds())
		if rep > 0 && discard != nil {
			discard(last)
		}
		last = st
	}
	if !o.trace {
		r.set("setup_s", median(times), "s")
		o.rss = startRSS()
	}
	return last, nil
}
