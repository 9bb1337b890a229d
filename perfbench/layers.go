package main

import (
	"context"
	"fmt"
	"time"

	"fenceplace/internal/fence"
	"fenceplace/internal/frontend"
	"fenceplace/internal/ir"
	"fenceplace/internal/mc"
	"fenceplace/internal/orders"
	"fenceplace/internal/passes"
	"fenceplace/internal/store"
	"fenceplace/internal/telemetry"
	"fenceplace/internal/tso"
)

// perLayer lists the metrics a traced run reports, in BENCHMARK.json
// order, with their units. Times (unit ms or us) are self time per item —
// a program for paper-eval and the certify workloads, a job for
// fenced-mixed; counts are per sweep over the workload's inputs; ratios
// name their base in NOTES.md. A metric a workload does not exercise reads
// 0.
var perLayer = []struct{ name, unit string }{
	{"frontend.lower_ms", "ms"}, {"frontend.lowers", "count"},
	{"ir.parse_ms", "ms"}, {"ir.parses", "count"},
	{"passes.alias_ms", "ms"}, {"passes.escape_ms", "ms"}, {"passes.cfg_ms", "ms"},
	{"passes.orders_ms", "ms"}, {"passes.slice_index_ms", "ms"}, {"passes.acquire_ms", "ms"},
	{"passes.prune_ms", "ms"}, {"passes.minimize_ms", "ms"}, {"passes.apply_ms", "ms"},
	{"passes.verify_ms", "ms"},
	{"passes.orderings_kept", "count"}, {"passes.fences_placed", "count"},
	{"tso.sim_ms", "ms"}, {"tso.sim_runs", "count"},
	{"mc.sc_explore_ms", "ms"}, {"mc.sc_explorations", "count"},
	{"mc.tso_explore_ms", "ms"}, {"mc.tso_explorations", "count"},
	{"mc.refute_ms", "ms"},
	{"mc.states_visited", "count"}, {"mc.states_visited_spread", "ratio"},
	{"mc.states_per_busy_s", "1/s"}, {"mc.distinct_ratio", "ratio"},
	{"mc.sleep_set_prunes", "count"}, {"mc.steals", "count"},
	{"mc.seen_seals", "count"}, {"mc.spill_runs", "count"}, {"mc.spill_mb", "MB"},
	{"mc.seen_hot_hit_ratio", "ratio"}, {"mc.seal_latency_ms_p50", "ms"},
	{"store.open_ms", "ms"}, {"store.get_ms", "ms"}, {"store.decode_ms", "ms"},
	{"store.encode_ms", "ms"}, {"store.put_ms", "ms"},
	{"store.hits", "count"}, {"store.misses", "count"}, {"store.hit_ratio", "ratio"},
	{"cert.item_ms", "ms"}, {"cert.store_read_share", "ratio"}, {"cert.sc_explore_share", "ratio"},
	{"cert.tso_explore_share", "ratio"}, {"cert.store_write_share", "ratio"},
	{"service.queue_wait_ms_p50", "ms"}, {"service.queue_wait_ms_p90", "ms"},
	{"service.run_ms_p50", "ms"}, {"service.coalesced_ratio", "ratio"},
	{"service.queue_rejects", "count"},
	{"service.http_submit_us_p50", "us"}, {"service.http_result_us_p50", "us"},
	{"harness.generator_lag_ms_p90", "ms"}, {"harness.trace_overhead_ratio", "ratio"},
}

// spanMetric maps span names onto the per-layer time metrics they feed.
var spanMetric = map[string]string{
	"frontend.lower":     "frontend.lower_ms",
	"ir.parse":           "ir.parse_ms",
	"passes.alias":       "passes.alias_ms",
	"passes.escape":      "passes.escape_ms",
	"passes.cfg":         "passes.cfg_ms",
	"passes.orders":      "passes.orders_ms",
	"passes.slice_index": "passes.slice_index_ms",
	"passes.acquire":     "passes.acquire_ms",
	"passes.prune":       "passes.prune_ms",
	"passes.minimize":    "passes.minimize_ms",
	"passes.apply":       "passes.apply_ms",
	"passes.verify":      "passes.verify_ms",
	"tso.sim":            "tso.sim_ms",
	"mc.sc_explore":      "mc.sc_explore_ms",
	"mc.tso_explore":     "mc.tso_explore_ms",
	"mc.refute":          "mc.refute_ms",
	"store.open":         "store.open_ms",
	"store.get":          "store.get_ms",
	"store.decode":       "store.decode_ms",
	"store.encode":       "store.encode_ms",
	"store.put":          "store.put_ms",
}

// layerReport accumulates a traced run's per-layer figures.
type layerReport struct {
	rec     *recorder
	items   int              // traced items (programs or jobs)
	sweeps  int              // traced sweeps
	deltas  map[string]int64 // summed telemetry counter deltas of traced sweeps
	seal    []int64          // summed mc.seal_latency_ns bucket deltas
	visited []float64        // mc.states_visited per traced sweep
	counts  map[string]int64 // benchmark-side counts, by metric name
	certs   bool             // items are certifications: report the cert.* shares
}

func newLayerReport() *layerReport {
	return &layerReport{rec: newRecorder(), deltas: map[string]int64{}, counts: map[string]int64{}}
}

// sweep brackets one traced sweep: counters are read before and after, so
// only traced work is counted.
func (l *layerReport) sweep(items int, body func() error) error {
	before := telemetry.Default().Snapshot()
	err := body()
	after := telemetry.Default().Snapshot()
	for name, v := range after.Counters {
		l.deltas[name] += v - before.Counters[name]
	}
	a, b := after.Histograms["mc.seal_latency_ns"].Buckets, before.Histograms["mc.seal_latency_ns"].Buckets
	for i := range a {
		for len(l.seal) <= i {
			l.seal = append(l.seal, 0)
		}
		var prev int64
		if i < len(b) {
			prev = b[i]
		}
		l.seal[i] += a[i] - prev
	}
	l.visited = append(l.visited, float64(after.Counters["mc.states_visited"]-before.Counters["mc.states_visited"]))
	l.sweeps++
	l.items += items
	return err
}

// fill sets every per-layer metric of r from the recorded spans and
// counts (0 where the workload did not exercise the layer). service and
// harness figures are the caller's to set afterwards.
func (l *layerReport) fill(r *run) {
	for _, m := range perLayer {
		r.set(m.name, 0, m.unit)
	}
	if l.sweeps == 0 {
		return
	}
	self := l.rec.selfTimes()
	perItem := func(d time.Duration) float64 { return ms(d) / float64(l.items) }
	for span, name := range spanMetric {
		r.set(name, perItem(self[span]), "ms")
	}
	sweeps := float64(l.sweeps)
	perSweep := func(v int64) float64 { return float64(v) / sweeps }
	for _, name := range []string{"frontend.lowers", "ir.parses", "passes.orderings_kept", "passes.fences_placed", "tso.sim_runs"} {
		r.set(name, perSweep(l.counts[name]), "count")
	}

	d := l.deltas
	sc := d["mc.sc_explore_runs"]
	r.set("mc.sc_explorations", perSweep(sc), "count")
	r.set("mc.tso_explorations", perSweep(d["mc.explore_runs"]-sc), "count")
	r.set("mc.states_visited", median(l.visited), "count")
	if lo, ok := percentile(l.visited, 0); ok && median(l.visited) > 0 {
		hi, _ := percentile(l.visited, 1)
		r.set("mc.states_visited_spread", (hi-lo)/median(l.visited), "ratio")
	}
	busy := self["mc.sc_explore"] + self["mc.tso_explore"] + self["mc.refute"]
	r.set("mc.states_per_busy_s", ratio(float64(d["mc.states_visited"]), busy.Seconds()), "1/s")
	r.set("mc.distinct_ratio", ratio(float64(d["mc.seen_states"]), float64(d["mc.seen_probes"])), "ratio")
	r.set("mc.sleep_set_prunes", perSweep(d["mc.sleep_set_prunes"]), "count")
	r.set("mc.steals", perSweep(d["mc.steals"]), "count")
	r.set("mc.seen_seals", perSweep(d["mc.seen_seals"]), "count")
	r.set("mc.spill_runs", perSweep(d["mc.spill_runs"]), "count")
	r.set("mc.spill_mb", perSweep(d["mc.spill_bytes"])/(1<<20), "MB")
	hot, cold := float64(d["mc.seen_hot_hits"]), float64(d["mc.seen_cold_hits"])
	r.set("mc.seen_hot_hit_ratio", ratio(hot, hot+cold), "ratio")
	r.set("mc.seal_latency_ms_p50", histQuantile(l.seal, 0.5)/1e6, "ms")

	hits, misses := float64(d["store.hits"]), float64(d["store.misses"])
	r.set("store.hits", hits/sweeps, "count")
	r.set("store.misses", misses/sweeps, "count")
	r.set("store.hit_ratio", ratio(hits, hits+misses), "ratio")

	if l.certs {
		var total float64
		for _, v := range l.rec.rootDurations() {
			total += v
		}
		share := func(spans ...string) float64 {
			var sum time.Duration
			for _, s := range spans {
				sum += self[s]
			}
			return ratio(ms(sum), total)
		}
		r.set("cert.item_ms", total/float64(l.items), "ms")
		r.set("cert.store_read_share", share("store.open", "store.get", "store.decode"), "ratio")
		r.set("cert.sc_explore_share", share("mc.sc_explore"), "ratio")
		r.set("cert.tso_explore_share", share("mc.tso_explore", "mc.refute"), "ratio")
		r.set("cert.store_write_share", share("store.encode", "store.put"), "ratio")
	}
}

// lane is one traced caller: its spans share a request id and a Chrome
// trace lane; parent is the span new spans nest under.
type lane struct {
	rec    *recorder
	req    int
	tid    int
	parent int
}

// call runs f inside a span named name.
func (ln lane) call(name string, f func()) {
	i := ln.rec.begin(name, ln.parent, ln.req, ln.tid)
	f()
	ln.rec.end(i)
}

// lower lowers Go source inside a frontend span.
func (ln lane) lower(file string, src []byte) (p *ir.Program, err error) {
	ln.call("frontend.lower", func() { p, err = frontend.Lower(file, src) })
	return p, err
}

// parse parses textual IR inside an ir span.
func (ln lane) parse(src string) (p *ir.Program, err error) {
	ln.call("ir.parse", func() { p, err = ir.Parse(src) })
	return p, err
}

// analyzed is one strategy's output of the static pipeline.
type analyzed struct {
	strategy passes.Strategy
	kept     int
	fences   int
	inst     *ir.Program
}

// analyze drives the passes.Session methods in dependency order, one span
// per pass, so each span holds exactly its own pass's work; then verifies
// every plan.
func (ln lane) analyze(p *ir.Program, workers int, strategies []passes.Strategy) ([]analyzed, error) {
	sess := passes.NewSession(p, passes.Workers(workers))
	ln.call("passes.alias", func() { sess.Alias() })
	ln.call("passes.escape", func() { sess.Escape() })
	if len(p.Funcs) > 0 {
		ln.call("passes.cfg", func() { sess.CFG(p.Funcs[0]) })
	}
	ln.call("passes.orders", func() { sess.Generated() })
	slicing := false
	for _, st := range strategies {
		slicing = slicing || st != passes.PensieveOnly
	}
	if slicing && len(p.Funcs) > 0 {
		ln.call("passes.slice_index", func() { sess.Index(p.Funcs[0]) })
	}
	var out []analyzed
	for _, st := range strategies {
		if st != passes.PensieveOnly {
			ln.call("passes.acquire", func() { sess.Acquires(st) })
		}
		var kept *orders.Set
		if st == passes.PensieveOnly {
			kept = sess.Kept(st) // the generated set itself: nothing to prune
		} else {
			ln.call("passes.prune", func() { kept = sess.Kept(st) })
		}
		var plan *fence.Plan
		ln.call("passes.minimize", func() { plan = sess.Plan(st) })
		var (
			inst *ir.Program
			imap map[*ir.Instr]*ir.Instr
		)
		ln.call("passes.apply", func() { inst, imap = sess.Applied(st) })
		var verr error
		ln.call("passes.verify", func() { verr = fence.Verify(kept, fence.Options{}, inst, imap) })
		if verr != nil {
			return nil, fmt.Errorf("%s: fence plan verification failed: %w", st, verr)
		}
		out = append(out, analyzed{strategy: st, kept: kept.Total(), fences: plan.FullFences(), inst: inst})
	}
	return out, nil
}

// simulate runs the Figure 10 simulator on inst for seeds 0..n-1 with the
// settings corpus.Runner uses, returning the cycle counts.
func (ln lane) simulate(inst *ir.Program, n int) ([]int64, error) {
	var cycles []int64
	for seed := 0; seed < n; seed++ {
		var out *tso.Outcome
		ln.call("tso.sim", func() {
			out = tso.Run(inst, tso.Config{Mode: tso.TSO, Sched: tso.MinTime, Policy: tso.DrainRandom, Seed: int64(seed)})
		})
		if out.Failed() {
			return nil, fmt.Errorf("failed under TSO: failures=%v err=%v deadlock=%v", out.Failures, out.Err, out.Deadlock)
		}
		cycles = append(cycles, out.MaxCycles)
	}
	return cycles, nil
}

// baseline loads the SC baseline of p from the store at dir, or explores
// it and writes it back — the calls passes.LoadOrExploreBaselineCtx
// makes, one span each. An empty dir certifies uncached.
func (ln lane) baseline(ctx context.Context, p *ir.Program, cfg mc.Config, dir string) (*mc.Baseline, error) {
	ncfg := cfg.Normalize()
	ncfg.Mode = tso.SC
	var (
		st  *store.Store
		key string
		err error
	)
	if dir != "" {
		ln.call("store.open", func() { st, err = store.OpenConfig(dir, store.Config{}) })
		if err != nil {
			return nil, err
		}
		var (
			data []byte
			ok   bool
		)
		ln.call("store.get", func() {
			key = mc.BaselineKey(p, nil, ncfg).String()
			data, ok = st.GetCtx(ctx, key)
		})
		if ok {
			var b *mc.Baseline
			ln.call("store.decode", func() { b, err = mc.UnmarshalBaseline(p, nil, ncfg, data) })
			if err == nil {
				return b, nil
			}
		}
	}
	var b *mc.Baseline
	ln.call("mc.sc_explore", func() { b, err = mc.NewBaselineCtx(ctx, p, nil, ncfg) })
	if err != nil || st == nil {
		return b, err
	}
	var data []byte
	ln.call("store.encode", func() { data, err = b.MarshalBinary() })
	if err != nil {
		return nil, err
	}
	ln.call("store.put", func() { err = st.PutCtx(ctx, key, data) })
	return b, err
}

// certify model-checks inst against base; a refuted certification is
// timed with its counterexample witness under its own span name.
func (ln lane) certify(ctx context.Context, base *mc.Baseline, inst *ir.Program, cfg mc.Config, expectRefute bool) (rep *mc.Report, witness string, err error) {
	name := "mc.tso_explore"
	if expectRefute {
		name = "mc.refute"
	}
	ln.call(name, func() {
		rep, err = mc.CertifyAgainstCtx(ctx, base, inst, cfg)
		if err == nil && !rep.Equivalent {
			witness = rep.Counterexample()
		}
	})
	return rep, witness, err
}
