package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fenceplace"
	"fenceplace/corpus"
	"fenceplace/internal/telemetry"
)

// paperSeeds is the number of simulator seeds per variant (Figure 10's
// averaging).
const paperSeeds = 2

// evalSource serves the paper's evaluation set followed by the Go twins,
// in a seeded order per sweep. Twins are lowered from a seeded source
// variant on every Build, so each sweep pays the frontend. It records when
// each member's row started, for per-program latency.
type evalSource struct {
	base  corpus.Source
	twins []*twin
	srcs  [][]byte // this sweep's source per twin
	perm  []int    // sweep position -> member
	mu    sync.Mutex
	start map[int]time.Time
}

func (s *evalSource) Label() string { return "paper-eval" }
func (s *evalSource) Len() int      { return s.base.Len() + len(s.twins) }

func (s *evalSource) Name(i int) string {
	if m := s.perm[i]; m >= s.base.Len() {
		return s.twins[m-s.base.Len()].file
	}
	return s.base.Name(s.perm[i])
}

func (s *evalSource) Build(i int) *fenceplace.Program {
	s.mu.Lock()
	s.start[i] = time.Now()
	s.mu.Unlock()
	m := s.perm[i]
	if m < s.base.Len() {
		return s.base.Build(m)
	}
	t := m - s.base.Len()
	p, err := fenceplace.ParseGo(s.twins[t].file, s.srcs[t])
	if err != nil {
		// Set-up lowered every variant already; the runner turns this
		// panic into the row's error.
		panic(fmt.Sprintf("lowering %s: %v", s.twins[t].file, err))
	}
	return p
}

func (s *evalSource) BuildManual(i int) *fenceplace.Program {
	if m := s.perm[i]; m < s.base.Len() {
		return s.base.BuildManual(m)
	}
	return nil
}

// started returns when member i's row began.
func (s *evalSource) started(i int) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.start[i]
}

// checkPaperRow applies the paper's invariants to one row: every analyzed
// variant present, fences ordered Control <= Address+Control <= Pensieve,
// and one simulator run per seed for every variant.
func checkPaperRow(name string, fences map[string]int, cycles map[string][]int64) string {
	for _, st := range allStrategies {
		if _, ok := fences[st.String()]; !ok {
			return fmt.Sprintf("%s: %s variant missing", name, st)
		}
	}
	c, ac, p := fences[fenceplace.Control.String()], fences[fenceplace.AddressControl.String()], fences[fenceplace.PensieveOnly.String()]
	if !(c <= ac && ac <= p) {
		return fmt.Sprintf("%s: fences Control %d, Address+Control %d, Pensieve %d are not ordered", name, c, ac, p)
	}
	for v, cy := range cycles {
		if len(cy) != paperSeeds {
			return fmt.Sprintf("%s/%s: %d simulator runs, want %d", name, v, len(cy), paperSeeds)
		}
	}
	return ""
}

// paperInputs is paper-eval's generated input.
type paperInputs struct {
	twins    []*twin
	variants [][][]byte // per twin, the seeded source variants
}

func makePaperInputs(o *options) (*paperInputs, error) {
	twins, err := loadTwins()
	if err != nil {
		return nil, err
	}
	in := &paperInputs{twins: twins}
	rng := o.rng(3)
	for _, t := range twins {
		var vs [][]byte
		for k := 0; k < variantsPerTwin; k++ {
			v, err := t.variant(rng)
			if err != nil {
				return nil, err
			}
			vs = append(vs, v)
		}
		in.variants = append(in.variants, vs)
	}
	return in, nil
}

// paperEval is the paper-eval workload: the paper's own evaluation
// (Figures 7-10) as a closed loop with one caller driving corpus.Runner
// over the evaluation set and the Go twins, with all three strategies,
// plan verification and the simulator, and no certification.
func paperEval(o *options, r *run) error {
	in, err := timedSetup(o, r, func(int) (*paperInputs, error) { return makePaperInputs(o) }, nil)
	if err != nil {
		return err
	}
	ctx := context.Background()
	rng := o.rng(4)
	var (
		repeat    repeatCheck
		reference = map[string]string{} // program -> rendered figures of the first pipeline to give them
	)
	l := newLoop(o, r, false)
	// In a traced run corpus.Runner's sweeps are also the reference the
	// rebuild's figures must equal.
	err = l.run(len(in.twins)+corpus.EvalSource().Len(), func(sweep int, tracing bool) error {
		src := &evalSource{base: corpus.EvalSource(), twins: in.twins, start: map[int]time.Time{}}
		for t := range in.twins {
			src.srcs = append(src.srcs, in.variants[t][sweep%variantsPerTwin])
		}
		src.perm = rng.Perm(src.Len())
		counts := sweepCounts{}
		var mu sync.Mutex
		record := func(name string, lat time.Duration, fences map[string]int, kept map[string]int, cycles map[string][]int64, err error) {
			mu.Lock()
			defer mu.Unlock()
			r.attempted++
			if err != nil {
				r.fail("%s: %v", name, err)
				return
			}
			if msg := checkPaperRow(name, fences, cycles); msg != "" {
				r.fail("%s", msg)
				return
			}
			figures := fmt.Sprint(fences, kept, cycles)
			if o.trace {
				if want, ok := reference[name]; ok && want != figures {
					r.fail("%s: traced pipeline gave %s, timed pipeline %s", name, figures, want)
					return
				}
				reference[name] = figures
			}
			for v, n := range fences {
				if v != "Manual" {
					counts["passes.fences_placed"] += int64(n)
					counts["passes.orderings_kept"] += int64(kept[v])
				}
			}
			for _, cy := range cycles {
				for _, c := range cy {
					counts["tso.cycles"] += c
				}
			}
			l.ok(lat)
		}
		before := telemetry.Default().Snapshot()
		var err error
		if tracing {
			err = tracedPaperSweep(l.layers, src, sweep, record)
		} else {
			err = timedPaperSweep(ctx, src, record)
		}
		if err != nil {
			r.fail("sweep %d: %v", sweep, err)
		}
		if tracing {
			l.layers.counts["passes.fences_placed"] += counts["passes.fences_placed"]
			l.layers.counts["passes.orderings_kept"] += counts["passes.orderings_kept"]
			l.layers.counts["frontend.lowers"] += int64(len(in.twins))
		}
		for k, v := range counterDelta(before, telemetry.Default().Snapshot(), "mc.explore_runs", "store.hits", "store.misses") {
			if v != 0 {
				r.problem("sweep %d: %s = %d; the paper's evaluation certifies nothing", sweep, k, v)
			}
		}
		repeat.add(r, sweep, counts)
		return nil
	})
	if err != nil {
		return err
	}
	return l.finish()
}

// timedPaperSweep runs one sweep through corpus.Runner.
func timedPaperSweep(ctx context.Context, src *evalSource, record func(string, time.Duration, map[string]int, map[string]int, map[string][]int64, error)) error {
	runner := corpus.Runner{Seeds: paperSeeds}
	return runner.Stream(ctx, src, func(row corpus.Row) error {
		lat := time.Since(src.started(row.Index))
		fences, kept, cycles := map[string]int{}, map[string]int{}, map[string][]int64{}
		for _, v := range row.Variants {
			fences[v.Name], kept[v.Name], cycles[v.Name] = v.FullFences, v.Orderings.Total, v.Cycles
		}
		record(row.Program, lat, fences, kept, cycles, nil)
		return nil
	})
}

// tracedPaperSweep rebuilds corpus.Runner's per-program pipeline from the
// layers' calls on as many workers as the runner uses (GOMAXPROCS), each
// program's analysis session single-threaded as the runner's are then.
func tracedPaperSweep(l *layerReport, src *evalSource, sweep int, record func(string, time.Duration, map[string]int, map[string]int, map[string][]int64, error)) error {
	workers := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	var wg sync.WaitGroup
	var sims atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= src.Len() {
					return
				}
				name := src.Name(i)
				start := time.Now()
				root := l.rec.begin("program "+name, -1, sweep*1000+i, w+1)
				ln := lane{rec: l.rec, req: sweep*1000 + i, tid: w + 1, parent: root}
				fences, kept, cycles := map[string]int{}, map[string]int{}, map[string][]int64{}
				err := func() error {
					var prog *fenceplace.Program
					if m := src.perm[i]; m >= src.base.Len() {
						t := m - src.base.Len()
						var err error
						if prog, err = ln.lower(src.twins[t].file, src.srcs[t]); err != nil {
							return err
						}
					} else {
						prog = src.base.Build(m)
					}
					res, err := ln.analyze(prog, 1, allPasses)
					if err != nil {
						return err
					}
					if manual := src.BuildManual(i); manual != nil {
						full, _ := manual.CountFences(false)
						fences["Manual"], kept["Manual"] = full, 0
						if cycles["Manual"], err = ln.simulate(manual, paperSeeds); err != nil {
							return err
						}
						sims.Add(paperSeeds)
					}
					for _, a := range res {
						v := fenceplace.Strategy(a.strategy).String()
						fences[v], kept[v] = a.fences, a.kept
						if cycles[v], err = ln.simulate(a.inst, paperSeeds); err != nil {
							return err
						}
						sims.Add(paperSeeds)
					}
					return nil
				}()
				l.rec.end(root)
				record(name, time.Since(start), fences, kept, cycles, err)
			}
		}(w)
	}
	wg.Wait()
	l.counts["tso.sim_runs"] += sims.Load()
	return nil
}
