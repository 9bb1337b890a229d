package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"fenceplace"
	"fenceplace/corpus"
	"fenceplace/internal/ir"
	"fenceplace/internal/mc"
	"fenceplace/internal/passes"
	"fenceplace/internal/service"
	"fenceplace/internal/telemetry"
)

const (
	// fencedRate is the open loop's arrival rate in jobs per second: half
	// the lowest throughput measured on a 2-vCPU host, about 11 jobs/s in
	// its slowest full set of benchmark runs. The same host measured up to
	// 35 jobs/s in other hours; a rate set from those would run it close
	// to saturation whenever it slows (see NOTES.md).
	fencedRate = 5.5
	// fencedSLO is the latency limit a job must meet, from its due time
	// to its verdict. Nothing in the repository states a target; 250 ms,
	// near the p90 measured at fencedRate (160-260 ms), is an assumption
	// chosen so that added queueing shows as a falling share.
	fencedSLO = 250 * time.Millisecond

	// The mix. The README's service examples and the CI service smoke
	// test make seven submissions: dekker three times, peterson twice,
	// szymanski and the spinlock twin once each, all at the default
	// threads and size; three of the seven ask for strategy "all", one
	// carries go_source and none inline IR.

	// allShare is the share of requests asking for strategy "all", three
	// of the seven examples.
	allShare = 3.0 / 7
	// irShare is the share of requests carrying inline IR. No example
	// submits inline IR; one in seven, as rare as go_source among the
	// examples, is an assumption.
	irShare = 1.0 / 7
	// zipfS skews program popularity: rank k is drawn with weight
	// 1/(k+1)^zipfS. Seven examples cannot fit an exponent; 1, the
	// classic Zipf law, is an assumption.
	zipfS = 1.0
	// mixSeed fixes the mix: the order of programs the examples do not
	// rank, and each request's strategy and kind.
	mixSeed = 11
)

// exampleRanks are the programs the service examples submit, most often
// first (szymanski before spinlock, as in the README).
var exampleRanks = []string{"dekker/s2", "peterson/s2", "szymanski/s2", "spinlock.go"}

// popularity ranks programs, most popular first: the examples' programs
// in exampleRanks order, then the other instantiations at size 2, the
// size the service defaults to and every example uses, then those at
// size 1, each group in a fixed shuffled order.
func popularity(rng *rand.Rand, progs []*certItem) []*certItem {
	rank := func(it *certItem) int {
		if i := slices.Index(exampleRanks, it.name); i >= 0 {
			return i
		}
		return len(exampleRanks) + int(2-it.params.Size)
	}
	out := shuffled(rng, progs)
	sort.SliceStable(out, func(a, b int) bool { return rank(out[a]) < rank(out[b]) })
	return out
}

// request is one scheduled submission.
type request struct {
	due      time.Duration // since the start of the open loop
	item     *certItem
	kind     string // "corpus", "go_source" or "ir"
	strategy string // "control" or "all"
	body     []byte // the POST /v1/jobs payload
	text     string // the IR or Go source the payload carries
}

// spec identifies what a request asks for; requests with equal specs
// must get equal verdicts.
func (q *request) spec() string { return q.item.name + "|" + q.kind + "|" + q.strategy }

// variants returns the variant names a request's report must list.
func (q *request) variants() []string {
	if q.strategy == "control" {
		return []string{fenceplace.Control.String()}
	}
	return []string{fenceplace.PensieveOnly.String(), fenceplace.AddressControl.String(), fenceplace.Control.String()}
}

// schedule generates the seeded request stream of an open loop spanning
// span seconds. N = rate x span arrivals are placed uniformly at random
// in the span: a Poisson process conditioned on its count, so every run
// of a length offers the same load. The mix is fixed: each certify-cold
// program (the unfenced builds excepted, since the service certifies
// placements) gets its share of N under a Zipf popularity, and each
// request asks for strategy "all" with probability allShare and carries
// inline IR with probability irShare, drawn from a fixed stream; the
// others name the corpus program or, for a Go twin, carry its source.
// The seed draws the order, the arrival times and the Go source
// variants, so seeds change the inputs but not what the mix costs.
func schedule(rng *rand.Rand, items []*certItem, span float64) ([]*request, error) {
	var progs []*certItem
	for _, it := range items {
		if !it.unfenced {
			progs = append(progs, it)
		}
	}
	fixed := rand.New(rand.NewSource(mixSeed))
	progs = popularity(fixed, progs)
	n := int(math.Round(fencedRate * span))
	var mix []*request
	for k, c := range zipfCounts(len(progs), n) {
		for j := 0; j < c; j++ {
			q := &request{item: progs[k], strategy: "control", kind: "corpus"}
			if fixed.Float64() < allShare {
				q.strategy = "all"
			}
			switch {
			case fixed.Float64() < irShare:
				q.kind = "ir"
			case q.item.twin != nil:
				q.kind = "go_source"
			}
			mix = append(mix, q)
		}
	}
	mix = shuffled(rng, mix)
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * span
	}
	sort.Float64s(dues)
	for i, q := range mix {
		q.due = time.Duration(dues[i] * float64(time.Second))
		var req service.Request
		switch q.kind {
		case "ir":
			var p *fenceplace.Program
			if q.item.twin != nil {
				var err error
				if p, err = fenceplace.ParseGo(q.item.twin.file, q.item.twin.src); err != nil {
					return nil, err
				}
			} else {
				p = q.item.meta.Build(q.item.params)
			}
			q.text = ir.Format(p)
			req.Program = q.text
		case "go_source":
			src, err := q.item.twin.variant(rng)
			if err != nil {
				return nil, err
			}
			q.text = string(src)
			req.GoSource = q.text
		case "corpus":
			req.Corpus, req.Threads, req.Size = q.item.meta.Name, q.item.params.Threads, q.item.params.Size
		}
		req.Strategy = q.strategy
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		q.body = body
	}
	return mix, nil
}

// zipfCounts splits n requests over k ranks in proportion to 1/(rank+1)^zipfS,
// by largest remainder, so the counts sum to n exactly.
func zipfCounts(k, n int) []int {
	weights := make([]float64, k)
	var total float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), zipfS)
		total += weights[i]
	}
	counts := make([]int, k)
	rem := make([]int, k)
	left := n
	for i, w := range weights {
		exact := w / total * float64(n)
		counts[i] = int(exact)
		left -= counts[i]
		rem[i] = i
		weights[i] = exact - float64(counts[i])
	}
	sort.SliceStable(rem, func(a, b int) bool { return weights[rem[a]] > weights[rem[b]] })
	for i := 0; i < left; i++ {
		counts[rem[i]]++
	}
	return counts
}

// daemon is a running in-process fenced: a Manager whose jobs explore on
// one core each, every other setting at its default, and a warmed baseline
// store, behind the HTTP handler.
type daemon struct {
	workers  int // the Manager's job workers
	srv      *service.Server
	h        http.Handler
	cacheDir string
	sched    []*request
}

func (d *daemon) close() { d.srv.Manager().Close() }

// jobDoc is the part of the service's job JSON the client reads.
type jobDoc struct {
	ID        string         `json:"id"`
	State     string         `json:"state"`
	Coalesced bool           `json:"coalesced"`
	Report    *corpus.Report `json:"report"`
	Error     string         `json:"error"`
}

// call sends one request to the handler in-process and decodes the job.
func (d *daemon) call(method, path string, body []byte) (int, *jobDoc, error) {
	rec := httptest.NewRecorder()
	d.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code == http.StatusTooManyRequests {
		return rec.Code, nil, nil
	}
	var doc jobDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		return rec.Code, nil, fmt.Errorf("%s %s: status %d: %v", method, path, rec.Code, err)
	}
	return rec.Code, &doc, nil
}

// startDaemon generates the schedule, starts a manager and warms its
// store: one waited job per program, so every SC baseline the traffic
// needs is on disk before the measured phase.
func startDaemon(o *options, rep int, items []*certItem) (*daemon, error) {
	sched, err := schedule(o.rng(5), items, o.seconds)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.work, fmt.Sprintf("cache-%d", rep))
	// The pool keeps its default GOMAXPROCS job workers, and each job
	// explores on one core, the setting the service documents for a busy
	// pool. At the default JobWorkers every job explores on every core, so
	// two overlapping jobs run four exploration threads on two cores and
	// each job's latency depends on which others the seed's arrivals
	// overlapped it with (see NOTES.md).
	workers := runtime.GOMAXPROCS(0)
	m := service.NewManager(service.Config{Workers: workers, JobWorkers: 1, Options: []fenceplace.Option{fenceplace.WithCacheDir(dir)}})
	srv := service.NewServer(m)
	d := &daemon{workers: workers, srv: srv, h: srv.Handler(), cacheDir: dir, sched: sched}
	for _, it := range items {
		if it.unfenced {
			continue
		}
		req := service.Request{Strategy: "control"}
		if it.twin != nil {
			req.GoSource = string(it.twin.src)
		} else {
			req.Corpus, req.Threads, req.Size = it.meta.Name, it.params.Threads, it.params.Size
		}
		body, err := json.Marshal(req)
		if err != nil {
			d.close()
			return nil, err
		}
		code, doc, err := d.call("POST", "/v1/jobs?wait=1", body)
		if err == nil && (code != http.StatusOK || doc.State != string(service.StateDone)) {
			err = fmt.Errorf("warm-up of %s: status %d", it.name, code)
		}
		if err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

// outcome is what the client saw for one request.
type outcome struct {
	sent      time.Time     // when the POST began
	finished  time.Time     // when the client saw the job finish
	lag       time.Duration // send time - due time
	submit    time.Duration // POST handler time
	result    time.Duration // GET handler time
	latency   time.Duration // due time -> verdict
	admitted  time.Time     // when the POST returned
	id        string
	coalesced bool
	refused   bool // 429
	err       error
	v         *verdict
	tso       map[string]int // variant -> TSO outcome count
	correct   bool           // the verdict passed every check
}

// fencedMixed is the fenced-mixed workload: open-loop Poisson traffic from
// one generator goroutine into the service's HTTP handler, in-process.
// Its throughput is correct jobs per second of the time the job pool was
// busy: the offered rate is fixed, so jobs over the run's length would
// measure the generator, not the service.
func fencedMixed(o *options, r *run) error {
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	twins, err := loadTwins()
	if err != nil {
		return err
	}
	items := certItems(twins)
	d, err := timedSetup(o, r, func(rep int) (*daemon, error) { return startDaemon(o, rep, items) }, (*daemon).close)
	if err != nil {
		return err
	}
	defer d.close()

	var poll *poller
	if o.trace {
		poll = &poller{srv: d.srv, started: map[string]time.Time{}}
	}
	before := telemetry.Default().Snapshot()
	outs := d.traffic(poll)
	bySpec := map[string]string{}
	latencies := checkOutcomes(r, exp, d.sched, outs, bySpec)
	var lags []float64
	for _, out := range outs {
		lags = append(lags, ms(out.lag))
	}
	lag90, _ := percentile(lags, 0.9)

	if o.trace {
		after := telemetry.Default().Snapshot()
		checkWarm(r, before, after)
		layers := newLayerReport()
		layers.certs = true
		overhead := replay(r, exp, d, layers, bySpec)
		layers.fill(r)
		r.set("harness.trace_overhead_ratio", overhead, "ratio")
		serviceMetrics(r, outs, poll, before, after)
		r.set("harness.generator_lag_ms_p90", lag90, "ms")
		return layers.rec.writeChrome(o.traceOut)
	}
	checkWarm(r, before, telemetry.Default().Snapshot())
	busy := poolBusy(outs, d.workers)
	r.set("throughput_per_s", ratio(float64(len(latencies)), busy.Seconds()), "1/s")
	r.set("latency_ms_p50", median(latencies), "ms")
	if p90, ok := tailPercentile(latencies, 0.9); ok {
		r.note("latency_ms_p90 %.4f ms", p90)
	}
	r.note("within_slo_ratio %.4f (limit %v, %d sent)", sloRatio(outs, fencedSLO), fencedSLO, len(outs))
	r.note("open loop: %d latency samples at %.1f jobs/s offered; generator lag p90 %.4f ms", len(latencies), fencedRate, lag90)
	r.note("job pool busy %.2f s of the open loop", busy.Seconds())
	return nil
}

// checkWarm fails the run when the measured traffic explored an SC
// baseline, which the warmed store should have served, or sealed a seen
// set.
func checkWarm(r *run, before, after telemetry.Snapshot) {
	if n := after.Counters["mc.sc_explore_runs"] - before.Counters["mc.sc_explore_runs"]; n != 0 {
		r.problem("%d SC explorations in the measured phase; the warmed store should serve every baseline", n)
	}
	if n := after.Counters["mc.seen_seals"] - before.Counters["mc.seen_seals"]; n != 0 {
		r.problem("%d seen-set seals outside certify-spill", n)
	}
}

// checkOutcomes counts the outcome of each request as attempted and fails it
// unless its verdict matches the expected file and every earlier verdict
// for an equal spec, recorded in bySpec. It marks the correct outcomes
// and returns their latencies in ms.
func checkOutcomes(r *run, exp *expectation, reqs []*request, outs []outcome, bySpec map[string]string) []float64 {
	var latencies []float64
	for i, q := range reqs {
		out := &outs[i]
		r.attempted++
		switch {
		case out.refused:
			r.fail("%s: refused with 429", q.spec())
			continue
		case out.err != nil:
			r.fail("%s: %v", q.spec(), out.err)
			continue
		}
		if msg := exp.check(q.item.name, out.v, q.variants()); msg != "" {
			r.fail("%s: %s", q.spec(), msg)
			continue
		}
		got := fmt.Sprint(out.v.status, out.v.scOutcomes, out.tso)
		if want, ok := bySpec[q.spec()]; ok && want != got {
			r.fail("%s: verdict %s differs from an earlier identical request's %s", q.spec(), got, want)
			continue
		}
		bySpec[q.spec()] = got
		out.correct = true
		latencies = append(latencies, ms(out.latency))
	}
	return latencies
}

// sloRatio is the share of sent requests that got a correct verdict
// within limit of their due time. Refused and failed requests count as
// misses.
func sloRatio(outs []outcome, limit time.Duration) float64 {
	within := 0
	for _, out := range outs {
		if out.correct && !out.refused && out.err == nil && out.latency <= limit {
			within++
		}
	}
	return ratio(float64(within), float64(len(outs)))
}

// play is the open loop: one generator goroutine starts serve(i, due) on
// a goroutine of its own at each due time, whether or not earlier
// requests have finished, so a stall delays no later send. It returns when
// every serve has returned, with each send's lag behind its due time.
func play(dues []time.Duration, serve func(i int, due time.Time)) []time.Duration {
	lags := make([]time.Duration, len(dues))
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range dues {
		due := start.Add(d)
		time.Sleep(time.Until(due))
		lags[i] = time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			serve(i, due)
		}()
	}
	wg.Wait()
	return lags
}

// traffic plays the schedule as an open loop: a client goroutine per
// request, blocked on the job almost all its life, submits
// asynchronously, waits for the job, fetches its result and releases its
// claim.
func (d *daemon) traffic(poll *poller) []outcome {
	outs := make([]outcome, len(d.sched))
	dues := make([]time.Duration, len(d.sched))
	for i, q := range d.sched {
		dues[i] = q.due
	}
	stopPoll := poll.start()
	lags := play(dues, func(i int, due time.Time) { d.client(d.sched[i], due, &outs[i], poll) })
	stopPoll()
	for i := range outs {
		outs[i].lag = lags[i]
	}
	return outs
}

// poolBusy is how long the service's job pool was busy during the open
// loop, in whole-pool seconds: each accepted request holds a worker from
// its POST to the moment its client saw the job finish, and at any moment
// the pool is min(in flight, workers)/workers busy. A request waiting in
// the queue only holds a worker's place when every worker is taken, so
// the figure does not depend on how the seed's arrivals overlap: it is the
// jobs' summed run time over the number of workers.
func poolBusy(outs []outcome, workers int) time.Duration {
	type event struct {
		at    time.Time
		delta int
	}
	var events []event
	for _, out := range outs {
		if !out.finished.IsZero() {
			events = append(events, event{out.sent, +1}, event{out.finished, -1})
		}
	}
	sort.Slice(events, func(a, b int) bool { return events[a].at.Before(events[b].at) })
	var busy time.Duration
	inFlight := 0
	for i, e := range events {
		if i > 0 && inFlight > 0 {
			busy += e.at.Sub(events[i-1].at) * time.Duration(min(inFlight, workers)) / time.Duration(workers)
		}
		inFlight += e.delta
	}
	return busy
}

// client runs one request's life cycle.
func (d *daemon) client(q *request, due time.Time, out *outcome, poll *poller) {
	t := time.Now()
	out.sent = t
	code, doc, err := d.call("POST", "/v1/jobs", q.body)
	out.submit = time.Since(t)
	out.admitted = time.Now()
	switch {
	case err != nil:
		out.err = err
		return
	case code == http.StatusTooManyRequests:
		out.refused = true
		return
	case code != http.StatusAccepted:
		out.err = fmt.Errorf("submit: status %d", code)
		return
	}
	out.id, out.coalesced = doc.ID, doc.Coalesced
	job := d.srv.Manager().Job(doc.ID)
	if job == nil {
		out.err = fmt.Errorf("job %s vanished before it finished", doc.ID)
		return
	}
	poll.watch(doc.ID, job)
	<-job.Done()
	t = time.Now()
	out.finished = t
	code, doc, err = d.call("GET", "/v1/jobs/"+out.id, nil)
	out.result = time.Since(t)
	out.latency = time.Since(due)
	if err == nil && (code != http.StatusOK || doc.State != string(service.StateDone) || doc.Report == nil) {
		err = fmt.Errorf("result: status %d, state %s, error %q", code, doc.State, doc.Error)
	}
	if err != nil {
		out.err = err
		return
	}
	if _, _, err := d.call("DELETE", "/v1/jobs/"+out.id, nil); err != nil {
		out.err = err
		return
	}
	out.v, out.tso, out.err = verdictFromReport(doc.Report)
}

// poller observes when queued jobs start running. The job JSON carries
// only the elapsed time, so a traced run samples each pending job's state
// every pollEvery; queue wait and run time are exact to that resolution.
type poller struct {
	srv     *service.Server
	mu      sync.Mutex
	pending map[string]*service.Job
	started map[string]time.Time
	done    map[string]time.Time
}

const pollEvery = 500 * time.Microsecond

// start launches the sampling goroutine; the returned stop waits for it.
// A nil poller does nothing.
func (p *poller) start() (stop func()) {
	if p == nil {
		return func() {}
	}
	p.pending, p.done = map[string]*service.Job{}, map[string]time.Time{}
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case now := <-tick.C:
				p.mu.Lock()
				for id, j := range p.pending {
					switch j.State() {
					case service.StateQueued:
						continue
					case service.StateRunning:
						if _, ok := p.started[id]; !ok {
							p.started[id] = now
						}
						continue
					}
					if _, ok := p.started[id]; !ok {
						p.started[id] = now // started and finished between samples
					}
					p.done[id] = now
					delete(p.pending, id)
				}
				p.mu.Unlock()
			}
		}
	}()
	return func() { close(quit); <-exited }
}

func (p *poller) watch(id string, j *service.Job) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, seen := p.started[id]; !seen {
		if _, ok := p.pending[id]; !ok {
			p.pending[id] = j
		}
	}
}

// serviceMetrics derives the service layer's figures from the traced HTTP
// phase.
func serviceMetrics(r *run, outs []outcome, p *poller, before, after telemetry.Snapshot) {
	admitted := map[string]time.Time{}
	var submits, results []float64
	coalesced, accepted := 0, 0
	for _, out := range outs {
		if out.refused || out.id == "" {
			continue
		}
		accepted++
		if out.coalesced {
			coalesced++
		} else if _, ok := admitted[out.id]; !ok {
			admitted[out.id] = out.admitted
		}
		submits = append(submits, float64(out.submit)/float64(time.Microsecond))
		results = append(results, float64(out.result)/float64(time.Microsecond))
	}
	var waits, runs []float64
	p.mu.Lock()
	for id, at := range admitted {
		s, ok := p.started[id]
		if !ok {
			continue
		}
		waits = append(waits, max(0, ms(s.Sub(at))))
		if e, ok := p.done[id]; ok {
			runs = append(runs, ms(e.Sub(s)))
		}
	}
	p.mu.Unlock()
	r.set("service.queue_wait_ms_p50", median(waits), "ms")
	if p90, ok := tailPercentile(waits, 0.9); ok {
		r.set("service.queue_wait_ms_p90", p90, "ms")
	} else {
		r.note("service.queue_wait_ms_p90 not reported: %d samples, fewer than %d", len(waits), 10*minBeyond)
	}
	r.set("service.run_ms_p50", median(runs), "ms")
	r.set("service.coalesced_ratio", ratio(float64(coalesced), float64(accepted)), "ratio")
	r.set("service.queue_rejects", float64(after.Counters["service.queue_rejects"]-before.Counters["service.queue_rejects"]), "count")
	r.set("service.http_submit_us_p50", median(submits), "us")
	r.set("service.http_result_us_p50", median(results), "us")
}

// replay rebuilds the service's per-job pipeline from the layers' calls
// for every distinct request of the schedule, against the same warmed
// store: parse or lower, the passes, the store's read path and TSO
// certification. It runs once untraced and then traced, must reach the
// verdicts the service returned, and returns the traced pass's time over
// the untraced one's.
func replay(r *run, exp *expectation, d *daemon, l *layerReport, bySpec map[string]string) float64 {
	ctx := context.Background()
	var distinct []*request
	seen := map[string]bool{}
	for _, q := range d.sched {
		if !seen[q.spec()] {
			seen[q.spec()] = true
			distinct = append(distinct, q)
		}
	}
	one := func(rec *recorder, i int, q *request) (string, error) {
		root := rec.begin("job "+q.spec(), -1, i, 1)
		defer rec.end(root)
		ln := lane{rec: rec, req: i, tid: 1, parent: root}
		var (
			p   *fenceplace.Program
			err error
		)
		switch q.kind {
		case "ir":
			p, err = ln.parse(q.text)
		case "go_source":
			p, err = ln.lower(q.item.twin.file, []byte(q.text))
		default:
			p = q.item.meta.Build(q.item.params)
		}
		if err != nil {
			return "", err
		}
		strategies := allPasses
		if q.strategy == "control" {
			strategies = []passes.Strategy{passes.Control}
		}
		res, err := ln.analyze(p, 0, strategies)
		if err != nil {
			return "", err
		}
		if rec != nil {
			for _, a := range res {
				l.counts["passes.fences_placed"] += int64(a.fences)
				l.counts["passes.orderings_kept"] += int64(a.kept)
			}
		}
		cfg := mc.Config{Workers: 1} // as the manager's JobWorkers
		base, err := ln.baseline(ctx, p, cfg, d.cacheDir)
		if err != nil {
			return "", err
		}
		v, tsoN := newVerdict(), map[string]int{}
		for _, a := range res {
			rep, witness, err := ln.certify(ctx, base, a.inst, cfg, false)
			if err != nil {
				return "", err
			}
			name := fenceplace.Strategy(a.strategy).String()
			v.add(name, rep.Equivalent, rep.SCOutcomes, witness != "")
			tsoN[name] = rep.TSOOutcomes
		}
		if msg := exp.check(q.item.name, v, q.variants()); msg != "" {
			return "", fmt.Errorf("%s", msg)
		}
		return fmt.Sprint(v.status, v.scOutcomes, tsoN), nil
	}
	pass := func(rec *recorder) time.Duration {
		start := time.Now()
		for i, q := range distinct {
			got, err := one(rec, i, q)
			if err != nil {
				r.fail("replay %s: %v", q.spec(), err)
				continue
			}
			if want, ok := bySpec[q.spec()]; ok && want != got {
				r.fail("replay %s: rebuilt pipeline gave %s, service %s", q.spec(), got, want)
			}
			switch {
			case rec == nil:
			case q.kind == "ir":
				l.counts["ir.parses"]++
			case q.kind == "go_source":
				l.counts["frontend.lowers"]++
			}
		}
		return time.Since(start)
	}
	untraced := pass(nil)
	var traced time.Duration
	l.sweep(len(distinct), func() error {
		traced = pass(l.rec)
		return nil
	})
	if n := l.deltas["mc.sc_explore_runs"]; n != 0 {
		r.problem("replay explored %d SC baselines; the warmed store should serve every one", n)
	}
	return ratio(traced.Seconds(), untraced.Seconds())
}
