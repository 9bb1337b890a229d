package mc

import (
	"context"
	"time"

	"fenceplace/internal/tso"
)

// Progress is one heartbeat of a running exploration: the engine's shared
// counters sampled at an instant, plus window-averaged throughput. The
// final event of an exploration (Final true) carries the closing totals,
// so a consumer that only keeps the last event per exploration has the
// exact outcome figures.
type Progress struct {
	Program      string        // program under exploration
	Mode         tso.Mode      // SC or TSO
	Visited      int64         // distinct states reached so far
	Frontier     int64         // states enqueued and not yet expanded
	Elapsed      time.Duration // since the exploration started
	StatesPerSec float64       // averaged over the heartbeat window (whole run for Final)
	Final        bool          // last event of this exploration
}

// progressCfg is the context payload WithProgress installs.
type progressCfg struct {
	every time.Duration
	fn    func(Progress)
}

type progressCtxKey struct{}

// WithProgress returns a context that makes every ExploreCtx under it
// stream Progress events to fn, sampled every `every` (<= 0: one second).
// The sink rides the context rather than Config so Config stays a
// comparable value usable as a cache key. Events of one exploration are
// delivered sequentially, but concurrent explorations under the same
// context call fn concurrently — sinks must be safe for that.
func WithProgress(ctx context.Context, every time.Duration, fn func(Progress)) context.Context {
	if fn == nil {
		return ctx
	}
	if every <= 0 {
		every = time.Second
	}
	return context.WithValue(ctx, progressCtxKey{}, progressCfg{every: every, fn: fn})
}

// progressFrom extracts the installed progress sink, if any.
func progressFrom(ctx context.Context) (progressCfg, bool) {
	pc, ok := ctx.Value(progressCtxKey{}).(progressCfg)
	return pc, ok
}

// heartbeat samples the engine's shared counters on a ticker until the
// exploration completes (e.done). It runs only when a progress sink is
// installed, so the common path pays nothing; the counters it reads are
// the atomics the workers maintain anyway.
func (e *engine) heartbeat(pc progressCfg, start time.Time) {
	t := time.NewTicker(pc.every)
	defer t.Stop()
	var lastV int64
	lastT := start
	for {
		select {
		case <-e.done:
			return
		case now := <-t.C:
			v := e.seen.Load()
			window := now.Sub(lastT).Seconds()
			var rate float64
			if window > 0 {
				rate = float64(v-lastV) / window
			}
			lastV, lastT = v, now
			pc.fn(Progress{
				Program:      e.prog.Name,
				Mode:         e.cfg.Mode,
				Visited:      v,
				Frontier:     e.inflight.Load(),
				Elapsed:      now.Sub(start),
				StatesPerSec: rate,
			})
		}
	}
}
