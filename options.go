package fenceplace

import (
	"os"
	"time"

	"fenceplace/internal/fsx"
	"fenceplace/internal/mc"
)

// Option is the one configuration vocabulary of the public API: the same
// option set parameterizes analyzer construction (NewAnalyzer) and
// certification (CertifyCtx, BaselineCtx). Options irrelevant to a call
// are simply ignored by it — WithTiming has no effect on a certification,
// WithMaxStates none on static analysis — so one resolved option list can
// drive a whole pipeline.
//
// Every knob of the deprecated CertOptions struct has an Option
// counterpart; CertOptions.Options converts.
type Option func(*config)

// config is the resolved form of an option list. The zero value selects
// every default; resolve applies the options and pins environment-derived
// defaults (the cache directory) once, so a configuration cannot drift
// mid-run when the environment changes.
type config struct {
	workers int  // bounded fan-out: per-function passes and exploration workers
	timing  bool // Results carry per-pass wall times

	maxStates int64 // model-checker state budget per exploration
	bufferCap int   // modeled TSO store-buffer capacity
	memoryCap int   // model-checker arena limit in words
	exactSeen bool  // exact string-keyed seen sets (oracle mode)
	noPOR     bool  // disable partial-order reduction (oracle mode)

	cacheDir    string // persistent baseline store directory ("" = none)
	cacheDirSet bool   // WithCacheDir was given; skip the env default

	spillDir    string // seen-set spill area ("" = keep sealed runs in RAM)
	spillDirSet bool   // WithSpillDir was given; skip the env default

	progress      func(ProgressEvent) // streaming progress sink (nil = none)
	progressEvery time.Duration       // heartbeat interval (0 = default 250ms)

	faultFS   fsx.FS // filesystem override for cache + spill I/O (nil = the OS)
	ioRetries int    // transient-I/O retry bound (0 = default, <0 = none)
}

// resolve folds an option list into a configuration. The baseline-store
// default is resolved here, exactly once per configuration: when no
// WithCacheDir option is present, $FENCEPLACE_CACHE_DIR is read at this
// point and the value is carried in the config from then on. A mid-run
// change to the environment therefore cannot split one run across two
// stores — every consumer of the resolved config sees the same directory.
func resolve(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if !c.cacheDirSet {
		// Marking the directory as set makes the resolution sticky: a
		// resolved config re-applied later (Resolved's pinning) keeps this
		// value instead of consulting the environment again.
		c.cacheDir, c.cacheDirSet = os.Getenv("FENCEPLACE_CACHE_DIR"), true
	}
	if !c.spillDirSet {
		c.spillDir, c.spillDirSet = os.Getenv("FENCEPLACE_SPILL_DIR"), true
	}
	return c
}

// mcConfig maps the exploration-shaping knobs onto a model-checker
// configuration (the single source of this mapping).
func (c config) mcConfig() mc.Config {
	return mc.Config{
		MaxStates: c.maxStates,
		Workers:   c.workers,
		BufferCap: c.bufferCap,
		MemoryCap: c.memoryCap,
		SpillDir:  c.spillDir,
		ExactSeen: c.exactSeen,
		NoPOR:     c.noPOR,
		FS:        c.faultFS,
		IORetries: c.ioRetries,
	}
}

// WithWorkers bounds the configured parallelism: the analyzer's
// per-function fan-out and the model checker's exploration workers alike.
// n < 1 means GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithTiming makes every produced Result carry per-pass wall times, which
// Summary then reports.
func WithTiming() Option {
	return func(c *config) { c.timing = true }
}

// WithCacheDir names the persistent, content-addressed baseline store
// (internal/store) certifications consult before exploring and write back
// after. The empty string disables persistence explicitly — unlike
// omitting the option, which falls back to $FENCEPLACE_CACHE_DIR (read
// once, when the option list is resolved).
func WithCacheDir(dir string) Option {
	return func(c *config) { c.cacheDir, c.cacheDirSet = dir, true }
}

// WithMaxStates bounds each model-checker exploration to n states; an
// exceeded budget surfaces as an error wrapping ErrTruncated, never as a
// verdict. n <= 0 means the checker's default (2M states).
func WithMaxStates(n int64) Option {
	return func(c *config) { c.maxStates = n }
}

// WithExactSeen switches the model checker to exact string-keyed seen
// sets — the slow cross-checking oracle for the fingerprint tables.
func WithExactSeen() Option {
	return func(c *config) { c.exactSeen = true }
}

// WithNoPOR disables partial-order reduction — the cross-checking oracle
// for the reduced exploration.
func WithNoPOR() Option {
	return func(c *config) { c.noPOR = true }
}

// WithBufferCap sets the modeled TSO store-buffer capacity (default 4).
func WithBufferCap(n int) Option {
	return func(c *config) { c.bufferCap = n }
}

// WithMemoryCap sets the model checker's memory budget: the per-state
// arena limit in words (default 1<<22) and, through it, the RAM allowance
// of the seen set (8 bytes per word) — once the seen set crosses that
// allowance, cold fingerprints are sealed and spilled to the WithSpillDir
// area instead of truncating the exploration. n < 0 removes the cap.
func WithMemoryCap(n int) Option {
	return func(c *config) { c.memoryCap = n }
}

// WithSpillDir names the scratch area where the model checker's sealed
// seen-set runs are written when an exploration outgrows its memory
// budget (see WithMemoryCap). The empty string disables spilling
// explicitly — unlike omitting the option, which falls back to
// $FENCEPLACE_SPILL_DIR (read once, when the option list is resolved).
// Without a spill directory, sealed runs stay in RAM: results are
// identical, only the budget is no longer honored. The area is distinct
// from the WithCacheDir baseline store; `fencecache gc -spill DIR`
// reclaims sessions orphaned by crashes.
func WithSpillDir(dir string) Option {
	return func(c *config) { c.spillDir, c.spillDirSet = dir, true }
}

// WithFaultFS routes every disk operation of the certification pipeline —
// the baseline cache and the seen-set spill area — through fs instead of
// the real filesystem. It is the fault-injection seam of the chaos test
// suite (see internal/fsx.NewFaultFS); nil restores the OS. The
// filesystem cannot affect certification verdicts, only whether the
// pipeline runs cached, spilled, or degraded; fs must have a comparable
// dynamic type (the pass session keys baselines by configuration).
func WithFaultFS(fs fsx.FS) Option {
	return func(c *config) { c.faultFS = fs }
}

// WithIORetries bounds how many times a transiently failing disk
// operation (EIO, interrupted syscall, short write) is re-attempted with
// exponential backoff before the pipeline degrades: 0 keeps the default
// (2 retries), negative disables retrying. Permanent failures — missing
// files, permission errors, no space — are never retried.
func WithIORetries(n int) Option {
	return func(c *config) { c.ioRetries = n }
}

// Resolved returns an option list equivalent to opts with every
// environment-derived default pinned: applying the result any number of
// times, at any later point, yields exactly the configuration opts
// resolves to now. Multi-program drivers (the corpus runner) resolve once
// up front so a mid-run environment change cannot split one run across
// two baseline stores.
func Resolved(opts ...Option) []Option {
	c := resolve(opts)
	return []Option{func(o *config) { *o = c }}
}
