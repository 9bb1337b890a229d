// Command paperbench regenerates every table and figure of the paper's
// evaluation over the corpus:
//
//	paperbench              # everything
//	paperbench -table2      # Table II only
//	paperbench -fig7 -fig9  # selected figures
//	paperbench -seeds 3     # average Figure 10 over 3 simulator seeds
//	paperbench -j 4         # analyze the corpus with 4 parallel workers
//	paperbench -litmus      # litmus verdicts on SC and TSO (opt-in; exit 1 on UNEXPECTED)
//
// The evaluation is driven through the public fenceplace/corpus package,
// which makes runs shardable across processes and machines:
//
//	paperbench -shard 1/2 -json s1.json     # analyze half the corpus
//	paperbench -shard 2/2 -json s2.json     # ...the other half elsewhere
//	paperbench -merge s1.json,s2.json       # render tables from the merged
//	                                        # reports — byte-identical to an
//	                                        # unsharded run
//
// -json writes the run's corpus Report (the evaluation report when
// figures ran, else the certification report); -merge skips analysis and
// renders the requested tables from previously written reports. Shards of
// a -cert run merge the same way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"fenceplace"
	"fenceplace/corpus"
	"fenceplace/internal/cli"
	"fenceplace/internal/litmus"
	"fenceplace/internal/stats"
	"fenceplace/internal/store"
	"fenceplace/internal/telemetry"
	"fenceplace/internal/tso"
)

func main() {
	var (
		table2   = flag.Bool("table2", false, "Table II: acquire signatures in sync kernels")
		fig2     = flag.Bool("fig2", false, "worked example (§2.4): delay set and fence counts")
		fig7     = flag.Bool("fig7", false, "Figure 7: acquires as % of escaping reads")
		fig8     = flag.Bool("fig8", false, "Figure 8: ordering counts by type")
		fig9     = flag.Bool("fig9", false, "Figure 9: full fences remaining on x86-TSO")
		fig10    = flag.Bool("fig10", false, "Figure 10: simulated execution time vs manual")
		manual   = flag.Bool("manual", false, "manual fence counts (§5.3)")
		litmusF  = flag.Bool("litmus", false, "litmus tests: reachable outcomes on SC and TSO vs the expected verdicts (not part of the default run)")
		seeds    = flag.Int("seeds", 1, "simulator seeds averaged in Figure 10")
		cert     = flag.Bool("cert", false, "certification column: model-check SC-equivalence of every placement")
		budget   = flag.Int64("certbudget", 1<<21, "model-checker state budget per exploration")
		deadline = flag.Duration("deadline", 0, "wall-clock budget for the whole run; exceeding it aborts with the inconclusive exit code 2 (0 = none)")
		jobs     = flag.Int("j", 0, "corpus analysis workers (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache-dir", "", "persistent certification-baseline store (default $FENCEPLACE_CACHE_DIR; empty = no persistence)")
		spillDir = flag.String("spill-dir", "", "scratch area for seen-set spill (default $FENCEPLACE_SPILL_DIR; empty = keep sealed runs in RAM)")
		shard    = flag.String("shard", "", "run only shard i/n of the corpus (e.g. 2/4); rows keep their unsharded index")
		jsonOut  = flag.String("json", "", "write the run's corpus Report JSON to this file")
		mergeIn  = flag.String("merge", "", "comma-separated report JSON files: skip analysis, merge them and render the requested tables")
		traceOut = flag.String("trace", "", "write a Chrome trace-event file (Perfetto-openable) of the run")
		metrics  = flag.Bool("metrics", false, "dump the final telemetry snapshot (JSON) to stderr on exit")
		pprof    = flag.String("pprof", "", "serve net/http/pprof and expvar on this address for the run's duration")
		version  = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()
	if *version {
		cli.Version()
		return
	}

	ctx, stop := cli.SignalContext()
	defer stop()
	if *deadline > 0 {
		// The deadline bounds wall-clock, not states: a stuck disk or an
		// oversized corpus run ends in the inconclusive exit code instead
		// of a hang. Cancellation wins against I/O retries within ~100ms.
		var cancelDeadline context.CancelFunc
		ctx, cancelDeadline = context.WithTimeout(ctx, *deadline)
		defer cancelDeadline()
	}

	// Observability surfaces. exit (below) runs the cleanup — trace-file
	// finalization, metrics dump — before os.Exit, which would skip defers;
	// the deferred call covers the fall-through return.
	var metricsW io.Writer
	if *metrics {
		metricsW = os.Stderr
	}
	cleanup, err := telemetry.Mount(telemetry.MountConfig{
		TracePath: *traceOut, PprofAddr: *pprof, Metrics: metricsW,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var cleanupOnce sync.Once
	finish := func() {
		cleanupOnce.Do(func() {
			if err := cleanup(); err != nil {
				fmt.Fprintln(os.Stderr, "telemetry:", err)
			}
		})
	}
	defer finish()
	exit := func(code int) {
		finish()
		os.Exit(code)
	}

	all := !*table2 && !*fig2 && !*fig7 && !*fig8 && !*fig9 && !*fig10 && !*manual && !*cert && !*litmusF

	if *litmusF {
		ok, err := litmusTable(os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		if !ok {
			exit(1)
		}
	}

	if *mergeIn != "" {
		if err := renderMerged(os.Stdout, *mergeIn, all, *fig7, *fig8, *fig9, *fig10, *manual, *cert); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		return
	}

	shardI, shardN, err := parseShard(*shard)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}

	if all || *table2 {
		fmt.Println(corpus.Table2())
	}

	// Resolve the baseline store directory exactly once, up front: the
	// flag, else the environment. Every consumer below (runner options and
	// the footer's store handle) sees this one value.
	dir := *cacheDir
	if dir == "" {
		dir = os.Getenv("FENCEPLACE_CACHE_DIR")
	}
	opts := []fenceplace.Option{fenceplace.WithMaxStates(*budget), fenceplace.WithCacheDir(dir)}
	if *spillDir != "" {
		opts = append(opts, fenceplace.WithSpillDir(*spillDir))
	}

	var out *corpus.Report
	var certRan bool
	if all || *cert {
		// Exhaustive certification runs the sync kernels at a reduced
		// instantiation (2 threads) so the whole state space fits. Rows are
		// analyzed in parallel; per row, one SC exploration serves as the
		// baseline all four variants certify against — served from the
		// persistent store without exploring when -cache-dir is warm.
		rep, err := runCert(ctx, os.Stdout, shardI, shardN, *jobs, opts, dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(failCode(err))
		}
		out = rep
		certRan = true
	}
	if all || *fig2 {
		fmt.Println(corpus.Fig2())
	}
	if all || *fig7 || *fig8 || *fig9 || *fig10 || *manual {
		src := corpus.EvalSource()
		if shardN > 0 {
			if src, err = corpus.Shard(src, shardI, shardN); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(2)
			}
		}
		runner := corpus.Runner{Seeds: *seeds, Workers: *jobs, Options: opts}
		rep, err := runner.Run(ctx, src)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(failCode(err))
		}
		out = rep
		if err := renderFigures(os.Stdout, rep, all, *fig7, *fig8, *fig9, *fig10, *manual); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		if certRan && *jsonOut != "" {
			// The cert and eval reports come from different sources and
			// cannot merge into one file; the eval report wins, loudly.
			fmt.Fprintln(os.Stderr, "-json: writing the evaluation report; the certification report is separate — rerun with -cert alone to export it")
		}
	}

	if *jsonOut != "" && out != nil {
		f, err := os.Create(*jsonOut)
		if err == nil {
			err = out.EncodeJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing report: %v\n", err)
			exit(1)
		}
	}
}

// failCode maps a run-ending error to an exit status: a blown -deadline
// is the inconclusive/truncated code 2 (no verdict, like an exhausted
// state budget), anything else is the plain failure code 1.
func failCode(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "inconclusive: -deadline exceeded before the run finished")
		return 2
	}
	return 1
}

// parseShard parses "i/n" (empty: unsharded, n = 0). The whole string
// must parse: trailing input is an error, not ignored.
func parseShard(s string) (i, n int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	is, ns, _ := strings.Cut(s, "/")
	i, errI := strconv.Atoi(is)
	n, errN := strconv.Atoi(ns)
	if errI != nil || errN != nil || i < 1 || n < 1 || i > n {
		return 0, 0, fmt.Errorf("invalid -shard %q (want i/n with 1 <= i <= n)", s)
	}
	return i, n, nil
}

// runCert certifies the kernel corpus and prints the certification table
// to w with its warm-vs-cold footer (SC explorations performed; store
// deltas when a baseline cache is in play).
func runCert(ctx context.Context, w io.Writer, shardI, shardN, jobs int, opts []fenceplace.Option, dir string) (*corpus.Report, error) {
	src := corpus.CertSource()
	if shardN > 0 {
		var err error
		if src, err = corpus.Shard(src, shardI, shardN); err != nil {
			return nil, err
		}
	}

	scRuns := telemetry.Default().Counter("mc.sc_explore_runs")
	scBefore := scRuns.Value()
	var st *store.Store
	var stBefore store.Stats
	if dir != "" {
		if st, _ = store.Open(dir); st != nil {
			stBefore = st.Stats()
		}
	}

	runner := corpus.Runner{Certify: true, Workers: jobs, Options: opts}
	rep, err := runner.Run(ctx, src)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	sb.WriteString(corpus.CertTable(rep))
	fmt.Fprintf(&sb, "\nSC explorations: %d\n", scRuns.Value()-scBefore)
	if st != nil {
		d := st.Stats().Sub(stBefore)
		fmt.Fprintf(&sb, "baseline cache (%s): %d warm hits, %d cold misses, %d written, %d quarantined\n",
			st.Dir(), d.Hits, d.Misses, d.Puts, d.Quarantined)
	}
	fmt.Fprintln(w, sb.String())
	return rep, nil
}

// renderFigures prints the selected report-backed tables to w. A report
// without dynamic runs cannot render Figure 10; that is an error for the
// caller to exit on, so the telemetry cleanup still runs.
func renderFigures(w io.Writer, rep *corpus.Report, all, fig7, fig8, fig9, fig10, manual bool) error {
	if all || fig7 {
		fmt.Fprintln(w, corpus.Fig7(rep))
	}
	if all || fig8 {
		fmt.Fprintln(w, corpus.Fig8(rep))
	}
	if all || fig9 {
		fmt.Fprintln(w, corpus.Fig9(rep))
	}
	if all || manual {
		fmt.Fprintln(w, corpus.ManualTable(rep))
	}
	if all || fig10 {
		s, err := corpus.Fig10(rep)
		if err != nil {
			return fmt.Errorf("figure 10 failed: %w", err)
		}
		fmt.Fprintln(w, s)
	}
	return nil
}

// litmusTable explores every litmus test on the SC and TSO machines and
// prints which outcomes are reachable; ok is false when a verdict differs
// from the expected one.
func litmusTable(w io.Writer) (ok bool, err error) {
	t := stats.NewTable("test", "outcome", "SC", "TSO", "verdict")
	ok = true
	for _, lt := range litmus.All() {
		sc, err := lt.Observed(tso.SC)
		if err != nil {
			return false, err
		}
		ts, err := lt.Observed(tso.TSO)
		if err != nil {
			return false, err
		}
		verdict := "ok"
		if sc != lt.AllowedSC || ts != lt.AllowedTSO {
			verdict = "UNEXPECTED"
			ok = false
		}
		t.Add(lt.Name, lt.Desc, observed(sc), observed(ts), verdict)
	}
	fmt.Fprint(w, t.String())
	return ok, nil
}

func observed(b bool) string {
	if b {
		return "observed"
	}
	return "forbidden"
}

// renderMerged loads shard reports, merges them and renders the requested
// tables from the combined data — the cross-process half of the sharded
// evaluation.
func renderMerged(w io.Writer, files string, all, fig7, fig8, fig9, fig10, manual, cert bool) error {
	var merged *corpus.Report
	for _, name := range strings.Split(files, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		rep, err := corpus.DecodeJSON(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if merged == nil {
			merged = rep
			continue
		}
		if err := merged.Merge(rep); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	if merged == nil {
		return fmt.Errorf("-merge: no report files given")
	}
	if cert {
		fmt.Fprintln(w, corpus.CertTable(merged))
	}
	return renderFigures(w, merged, all, fig7, fig8, fig9, fig10, manual)
}
