package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fenceplace"
	"fenceplace/corpus"
	"fenceplace/internal/frontend"
	"fenceplace/internal/mc"
	"fenceplace/internal/passes"
	"fenceplace/internal/progs"
	"fenceplace/internal/telemetry"
	"fenceplace/internal/tso"
)

// allStrategies is the paper's display order, the order corpus rows list
// their analyzed variants in.
var allStrategies = []fenceplace.Strategy{fenceplace.PensieveOnly, fenceplace.AddressControl, fenceplace.Control}

var allPasses = []passes.Strategy{passes.PensieveOnly, passes.AddressControl, passes.Control}

// coldInputs is certify-cold's generated input: the items and, per twin,
// seeded source variants the sweeps cycle through.
type coldInputs struct {
	items    []*certItem
	twins    []*twin
	variants map[*twin][][]byte
}

const variantsPerTwin = 8

func makeColdInputs(o *options) (*coldInputs, error) {
	twins, err := loadTwins()
	if err != nil {
		return nil, err
	}
	in := &coldInputs{items: certItems(twins), twins: twins, variants: map[*twin][][]byte{}}
	rng := o.rng(1)
	for _, t := range twins {
		for k := 0; k < variantsPerTwin; k++ {
			v, err := t.variant(rng)
			if err != nil {
				return nil, err
			}
			in.variants[t] = append(in.variants[t], v)
		}
	}
	return in, nil
}

// source returns the twin source a sweep lowers (nil for hand-built items).
func (in *coldInputs) source(it *certItem, sweep int) []byte {
	if it.twin == nil {
		return nil
	}
	vs := in.variants[it.twin]
	return vs[sweep%len(vs)]
}

// sweepCounts are the figures of one sweep that must repeat exactly.
type sweepCounts map[string]int64

// repeatCheck pins the first sweep's counts and reports any later sweep
// whose counts differ.
type repeatCheck struct{ first sweepCounts }

func (c *repeatCheck) add(r *run, sweep int, got sweepCounts) {
	if c.first == nil {
		c.first = got
		return
	}
	for k, v := range c.first {
		if got[k] != v {
			r.problem("sweep %d: %s = %d, first sweep had %d (a deterministic count did not repeat)", sweep, k, got[k], v)
		}
	}
}

// counterDelta returns after-before for the named telemetry counters.
func counterDelta(before, after telemetry.Snapshot, names ...string) sweepCounts {
	out := sweepCounts{}
	for _, n := range names {
		out[n] = after.Counters[n] - before.Counters[n]
	}
	return out
}

// coldItem certifies one item the way fencecheck does, in-process, against
// a fresh store at dir: corpus.Runner as under -json (the expert build
// included), or Analyzer plus CertifyCtx on the legacy build as under
// -unfenced.
func coldItem(ctx context.Context, it *certItem, src []byte, dir string, counts sweepCounts) (*verdict, error) {
	var (
		prog *fenceplace.Program
		err  error
	)
	if it.twin != nil {
		prog, err = fenceplace.ParseGo(it.twin.file, src)
	} else {
		prog = it.meta.Build(it.params)
	}
	if err != nil {
		return nil, err
	}
	opts := fenceplace.Resolved(fenceplace.WithMaxStates(0), fenceplace.WithWorkers(0), fenceplace.WithCacheDir(dir))
	if it.unfenced {
		az := fenceplace.NewAnalyzer(prog)
		results, err := az.AnalyzeAllCtx(ctx, fenceplace.Control)
		if err != nil {
			return nil, err
		}
		res := results[0]
		res.Instrumented = res.Prog
		rep, err := fenceplace.CertifyCtx(ctx, res, nil, opts...)
		if err != nil {
			return nil, err
		}
		v := newVerdict()
		v.add("Unfenced", rep.Equivalent, rep.SCOutcomes, rep.Counterexample() != "")
		return v, nil
	}
	runner := corpus.Runner{Strategies: allStrategies, Certify: true, Workers: 1, Options: opts}
	rep, err := runner.Run(ctx, corpus.SingleSource(it.name, prog, it.manual()))
	if err != nil {
		return nil, err
	}
	v, _, err := verdictFromReport(rep)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", it.name, err)
	}
	for _, row := range rep.Rows {
		for _, va := range row.Variants {
			if va.Analyzed {
				counts["passes.fences_placed"] += int64(va.FullFences)
				counts["passes.orderings_kept"] += int64(va.Orderings.Total)
			}
		}
	}
	return v, nil
}

// verdictFromReport reads each variant's certification out of a corpus
// report, as fencecheck -json and the service's job document carry it,
// with each variant's number of TSO outcomes.
func verdictFromReport(rep *corpus.Report) (*verdict, map[string]int, error) {
	v, tso := newVerdict(), map[string]int{}
	for _, row := range rep.Rows {
		for _, va := range row.Variants {
			if va.Cert == nil {
				return nil, nil, fmt.Errorf("%s: no certification", va.Name)
			}
			v.status[va.Name] = va.Cert.Status
			v.scOutcomes[va.Name] = va.Cert.SCOutcomes
			v.witness[va.Name] = va.Cert.Counterexample != ""
			tso[va.Name] = va.Cert.TSOOutcomes
		}
	}
	return v, tso, nil
}

// add records one variant's certification.
func (v *verdict) add(name string, equivalent bool, scOutcomes int, witness bool) {
	status := corpus.CertViolation
	if equivalent {
		status = corpus.CertCertified
	}
	v.status[name], v.scOutcomes[name], v.witness[name] = status, scOutcomes, witness
}

// tracedColdItem is coldItem rebuilt from the layers' public calls, one
// span per call under the item's root span.
func tracedColdItem(ctx context.Context, ln lane, it *certItem, src []byte, dir string, counts sweepCounts) (*verdict, error) {
	var (
		prog *fenceplace.Program
		err  error
	)
	if it.twin != nil {
		prog, err = ln.lower(it.twin.file, src)
		counts["frontend.lowers"]++
	} else {
		prog = it.meta.Build(it.params)
	}
	if err != nil {
		return nil, err
	}
	strategies := allPasses
	if it.unfenced {
		strategies = []passes.Strategy{passes.Control}
	}
	res, err := ln.analyze(prog, 0, strategies)
	if err != nil {
		return nil, err
	}
	cfg := mc.Config{}
	base, err := ln.baseline(ctx, prog, cfg, dir)
	if err != nil {
		return nil, err
	}
	v := newVerdict()
	certify := func(name string, inst *fenceplace.Program, refute bool) error {
		rep, witness, err := ln.certify(ctx, base, inst, cfg, refute)
		if err != nil {
			return err
		}
		v.add(name, rep.Equivalent, rep.SCOutcomes, witness != "")
		return nil
	}
	if it.unfenced {
		return v, certify("Unfenced", prog, true)
	}
	if m := it.manual(); m != nil {
		if err := certify("Manual", m, false); err != nil {
			return nil, err
		}
	}
	for _, a := range res {
		counts["passes.fences_placed"] += int64(a.fences)
		counts["passes.orderings_kept"] += int64(a.kept)
		if err := certify(fenceplace.Strategy(a.strategy).String(), a.inst, false); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// loop drives a closed-loop workload: one sweep over its inputs after
// another until the measured phase has passed. A traced run alternates
// the timed pipeline with the traced rebuild, and goes on until it has
// made one traced sweep: the timed sweeps are the base of the tracing
// overhead, and both must reach the expected verdicts.
type loop struct {
	o         *options
	r         *run
	layers    *layerReport // nil in a timed run
	latencies []float64    // per correct item, ms
	busy      time.Duration
	traced    []float64 // sweep times, s
	untraced  []float64
}

func newLoop(o *options, r *run, certs bool) *loop {
	l := &loop{o: o, r: r}
	if o.trace {
		l.layers = newLayerReport()
		l.layers.certs = certs
	}
	return l
}

// run calls sweep(i, tracing) for i = 0, 1, ... until the loop is done; a
// traced sweep runs inside layers.sweep over items items. It stops at the
// first error.
func (l *loop) run(items int, sweep func(i int, tracing bool) error) error {
	deadline := time.Now().Add(l.o.duration())
	for i := 0; i == 0 || time.Now().Before(deadline) || (l.layers != nil && len(l.traced) == 0); i++ {
		tracing := l.layers != nil && i%2 == 1
		start := time.Now()
		var err error
		if tracing {
			err = l.layers.sweep(items, func() error { return sweep(i, true) })
		} else {
			err = sweep(i, false)
		}
		elapsed := time.Since(start)
		l.busy += elapsed
		switch {
		case tracing:
			l.traced = append(l.traced, elapsed.Seconds())
		case l.layers != nil:
			l.untraced = append(l.untraced, elapsed.Seconds())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ok records an item that reached a correct output in lat.
func (l *loop) ok(lat time.Duration) { l.latencies = append(l.latencies, ms(lat)) }

// finish sets the run's metrics: in a traced run the per-layer figures
// and the tracing overhead, with the Chrome trace written out; in a timed
// run the end-to-end figures. Throughput is per second of the loop's own
// run time, so it does not depend on where the last item ended relative
// to --seconds.
func (l *loop) finish() error {
	r := l.r
	if l.layers != nil {
		l.layers.fill(r)
		r.set("harness.trace_overhead_ratio", ratio(median(l.traced), median(l.untraced)), "ratio")
		return l.layers.rec.writeChrome(l.o.traceOut)
	}
	r.set("throughput_per_s", ratio(float64(len(l.latencies)), l.busy.Seconds()), "1/s")
	r.set("latency_ms_p50", median(l.latencies), "ms")
	if p90, ok := tailPercentile(l.latencies, 0.9); ok {
		r.note("latency_ms_p90 %.4f ms", p90)
	}
	r.note("%d latency samples", len(l.latencies))
	return nil
}

// certifyCold is the certify-cold workload: a closed loop with one caller
// certifying one program at a time, each against an empty store, so every
// SC baseline is explored and written back.
func certifyCold(o *options, r *run) error {
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	in, err := timedSetup(o, r, func(int) (*coldInputs, error) { return makeColdInputs(o) }, nil)
	if err != nil {
		return err
	}
	ctx := context.Background()
	rng := o.rng(2)
	var repeat repeatCheck
	l := newLoop(o, r, true)
	err = l.run(len(in.items), func(sweep int, tracing bool) error {
		order := shuffled(rng, in.items)
		counts := sweepCounts{}
		before := telemetry.Default().Snapshot()
		for i, it := range order {
			dir := filepath.Join(o.work, fmt.Sprintf("cold-%d-%d", sweep, i))
			start := time.Now()
			var v *verdict
			var err error
			if tracing {
				rec := l.layers.rec
				root := rec.begin("cert "+it.name, -1, sweep*1000+i, 1)
				v, err = tracedColdItem(ctx, lane{rec: rec, req: sweep*1000 + i, tid: 1, parent: root}, it, in.source(it, sweep), dir, counts)
				rec.end(root)
			} else {
				v, err = coldItem(ctx, it, in.source(it, sweep), dir, counts)
			}
			lat := time.Since(start)
			r.attempted++
			if err != nil {
				r.fail("%s: %v", it.name, err)
				continue
			}
			if msg := exp.check(it.name, v, nil); msg != "" {
				r.fail("%s", msg)
				continue
			}
			l.ok(lat)
		}
		if tracing {
			for k, v := range counts {
				l.layers.counts[k] += v
			}
		}
		after := telemetry.Default().Snapshot()
		for k, v := range counterDelta(before, after, "mc.sc_explore_runs", "store.hits", "mc.seen_seals") {
			counts[k] = v
		}
		if n := counts["mc.sc_explore_runs"]; n != int64(len(order)) {
			r.problem("sweep %d: %d SC explorations for %d programs on empty stores", sweep, n, len(order))
		}
		if counts["store.hits"] != 0 {
			r.problem("sweep %d: %d store hits on a cold store", sweep, counts["store.hits"])
		}
		if counts["mc.seen_seals"] != 0 {
			r.problem("sweep %d: %d seen-set seals outside certify-spill", sweep, counts["mc.seen_seals"])
		}
		repeat.add(r, sweep, counts)
		for i := range order {
			if err := os.RemoveAll(filepath.Join(o.work, fmt.Sprintf("cold-%d-%d", sweep, i))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if msg := twinOracle(ctx, in.twins); msg != "" {
		r.problem("%s", msg)
	}
	return l.finish()
}

// twinOracle checks that every Go twin's SC outcome set equals its
// hand-built original's, explored without any store. It returns a
// description of the first difference, or "".
func twinOracle(ctx context.Context, twins []*twin) string {
	keys := func(p *fenceplace.Program) ([]string, error) {
		set, err := mc.ExploreCtx(ctx, p, nil, mc.Config{Mode: tso.SC})
		if err != nil {
			return nil, err
		}
		k := set.Keys()
		sort.Strings(k)
		return k, nil
	}
	for _, t := range twins {
		p, err := frontend.Lower(t.file, t.src)
		if err != nil {
			return err.Error()
		}
		got, err := keys(p)
		if err != nil {
			return err.Error()
		}
		want, err := keys(progs.ByName(t.orig).Build(t.params))
		if err != nil {
			return err.Error()
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Sprintf("%s: SC outcome set %v differs from hand-built %s's %v", t.file, got, t.orig, want)
		}
	}
	return ""
}

// spillMemCap is the capped memory budget BenchmarkCertifySpill uses: it
// anchors a 4 MiB seen budget, far below szymanski t2/s3's state space.
const spillMemCap = 1 << 19

// certifySpill is the certify-spill workload: a closed loop certifying
// szymanski at threads=2, size=3 (about 1.9M states) under the capped seen
// budget, so the seen set seals hot tables and spills them to disk.
func certifySpill(o *options, r *run) error {
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	m := progs.ByName("szymanski")
	params := progs.Params{Threads: 2, Size: 3}
	ctx := context.Background()
	// Set-up makes the spill area and checks the input: the build
	// instantiates and its Control plan verifies.
	dir, err := timedSetup(o, r, func(int) (string, error) {
		d := filepath.Join(o.work, "spill")
		if err := os.MkdirAll(d, 0o755); err != nil {
			return "", err
		}
		res, err := fenceplace.NewAnalyzer(m.Build(params)).AnalyzeCtx(ctx, fenceplace.Control)
		if err != nil {
			return "", err
		}
		return d, res.Verify()
	}, nil)
	if err != nil {
		return err
	}
	opts := fenceplace.Resolved(
		fenceplace.WithWorkers(0), fenceplace.WithMaxStates(16<<20),
		fenceplace.WithMemoryCap(spillMemCap), fenceplace.WithSpillDir(dir), fenceplace.WithCacheDir(""))
	cfg := mc.Config{MaxStates: 16 << 20, MemoryCap: spillMemCap, SpillDir: dir}

	var repeat repeatCheck
	l := newLoop(o, r, true)
	err = l.run(1, func(i int, tracing bool) error {
		counts := sweepCounts{}
		v := newVerdict()
		start := time.Now()
		before := telemetry.Default().Snapshot()
		err := func() error {
			if !tracing {
				az := fenceplace.NewAnalyzer(m.Build(params))
				res, err := az.AnalyzeCtx(ctx, fenceplace.Control)
				if err != nil {
					return err
				}
				counts["passes.fences_placed"] = int64(res.FullFences)
				counts["passes.orderings_kept"] = int64(res.OrderingsKept)
				rep, err := fenceplace.CertifyCtx(ctx, res, nil, opts...)
				if err != nil {
					return err
				}
				v.add("Control", rep.Equivalent, rep.SCOutcomes, rep.Counterexample() != "")
				return nil
			}
			rec := l.layers.rec
			root := rec.begin("cert szymanski/s3", -1, i, 1)
			defer rec.end(root)
			ln := lane{rec: rec, req: i, tid: 1, parent: root}
			prog := m.Build(params)
			res, err := ln.analyze(prog, 0, []passes.Strategy{passes.Control})
			if err != nil {
				return err
			}
			counts["passes.fences_placed"] = int64(res[0].fences)
			counts["passes.orderings_kept"] = int64(res[0].kept)
			base, err := ln.baseline(ctx, prog, cfg, "")
			if err != nil {
				return err
			}
			rep, witness, err := ln.certify(ctx, base, res[0].inst, cfg, false)
			if err != nil {
				return err
			}
			v.add("Control", rep.Equivalent, rep.SCOutcomes, witness != "")
			return nil
		}()
		lat := time.Since(start)
		if tracing {
			for k, v := range counts {
				l.layers.counts[k] += v
			}
		}
		r.attempted++
		seals := counterDelta(before, telemetry.Default().Snapshot(), "mc.seen_seals")["mc.seen_seals"]
		switch {
		case errors.Is(err, mc.ErrTruncated):
			r.fail("szymanski/s3: truncated: %v", err)
		case err != nil:
			r.fail("szymanski/s3: %v", err)
		case seals == 0:
			r.fail("szymanski/s3: the seen set never sealed; the workload measured no spilling")
		default:
			if msg := exp.check("szymanski/s3", v, nil); msg != "" {
				r.fail("%s", msg)
				break
			}
			l.ok(lat)
		}
		repeat.add(r, i, counts)
		return nil
	})
	if err != nil {
		return err
	}
	return l.finish()
}
