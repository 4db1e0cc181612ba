// Package workload drives a replicated keyspace with synthetic client
// traffic and measures what the ROADMAP's production framing cares about:
// throughput and tail latency. The default generator is closed-loop — a
// fixed pool of workers each issue one op, wait for it, record its
// latency, and issue the next — so measured latency includes every
// queueing effect the serving path has, and offered load adapts to what
// the target sustains.
//
// Closed-loop load can never demonstrate overload: when the target slows,
// the workers slow with it, so offered load self-throttles to capacity.
// Config.OpenLoop switches to open-loop arrivals — ops are due on a fixed
// schedule (ArrivalRate per second) regardless of how the target is
// coping, and a worker that falls behind issues late ops back-to-back
// rather than silently thinning the schedule. Latency is then measured
// from each op's *scheduled* arrival, so queueing delay the target caused
// is charged to it (the standard correction for coordinated omission).
//
// Config.RetryBudget adds a client-side retry policy: ops the target shed
// (a runtime.Rejection carrying a positive RetryAfter — overload sheds and
// not-fresh reads) are retried with jittered exponential backoff — floored
// at the server's hint — up to the budget. Every other failure (dead
// replica, fail-stop) is never retried: the server said gone, not busy.
//
// Key popularity follows either a uniform or a Zipf distribution; the Zipf
// default mirrors the paper's demand model (a few very hot items, a long
// cold tail), so shard routers see realistically skewed per-shard load.
package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/store"
)

// Client is one logical client's view of the keyspace: writes feed its
// freshness floor and reads enforce a consistency level against it. The
// method set is *shard.Session's, so a router session is a Client as is;
// the interface exists because tests (and the chaos tracker) substitute
// their own. A Client is used by a single worker goroutine at a time.
type Client interface {
	Write(key string, value []byte) (shard.Receipt, error)
	ReadVersioned(key string, level runtime.Level) (store.Versioned, bool, error)
}

// KeyDist selects the key-popularity distribution.
type KeyDist int

// The key-popularity distributions.
const (
	// Zipf popularity (skewed; exponent Config.ZipfS). The default.
	Zipf KeyDist = iota
	// Uniform popularity.
	Uniform
)

// String names the distribution.
func (d KeyDist) String() string {
	switch d {
	case Zipf:
		return "zipf"
	case Uniform:
		return "uniform"
	}
	return fmt.Sprintf("KeyDist(%d)", int(d))
}

// Config parametrises one load run. Run fills every unset field with the
// listed default (a zero-value Config runs a write-only workload — set
// ReadFraction negative to get the read-heavy default mix).
type Config struct {
	// Workers is the closed-loop concurrency (default 8).
	Workers int
	// Ops is the total operation count across workers (default 10000).
	Ops int
	// ReadFraction in [0,1] is the probability an op is a read; 0 is a
	// valid write-only mix. Negative (or >1) selects the default 0.9, a
	// read-heavy serving mix.
	ReadFraction float64
	// Keys is the keyspace size (default 1024).
	Keys int
	// Dist picks key popularity (default Zipf).
	Dist KeyDist
	// ZipfS is the Zipf exponent, > 1 (default 1.2).
	ZipfS float64
	// ValueBytes sizes write payloads (default 64).
	ValueBytes int
	// Seed makes the op stream deterministic (default 1).
	Seed int64
	// OpenLoop switches from closed-loop to open-loop arrivals: ops are due
	// on a fixed schedule of ArrivalRate per second, shared across workers,
	// and latency is measured from the scheduled arrival rather than the
	// moment a worker got around to issuing — so queueing delay caused by a
	// slow target is charged to the target (coordinated-omission
	// correction). Workers that fall behind issue late ops back-to-back
	// until they catch up; the schedule never thins.
	OpenLoop bool
	// ArrivalRate is the open-loop offered load in ops/sec (default 1000;
	// ignored unless OpenLoop).
	ArrivalRate float64
	// RetryBudget is the number of times one op may be retried after the
	// target sheds it (a runtime.Rejection with a positive RetryAfter). 0 —
	// the default — disables retries; other errors are never retried
	// regardless.
	RetryBudget int
	// RetryBase is the first retry's backoff; later attempts double it,
	// each with ±50% jitter, and the server's retry-after hint acts as a
	// floor (default 2ms).
	RetryBase time.Duration
	// SessionReads, BoundedReads and StrongReads split the read mix by
	// consistency level: each is the fraction of *reads* issued at that
	// level, the remainder staying eventual. Fractions summing past 1 are
	// scaled down proportionally.
	SessionReads, BoundedReads, StrongReads float64
	// Progress, when non-nil, receives live op counts as workers complete
	// operations — the hook periodic reporters read mid-run, when Result is
	// not available yet.
	Progress *Progress
}

// Progress is a live, concurrently updated view of a running workload: op
// counts advance as workers complete operations. Readers use the atomic
// fields directly; deltas between reads give interval rates.
type Progress struct {
	// Reads and Writes count completed (successful) ops. Reads totals
	// every level; ReadsByLevel carries the split.
	Reads, Writes atomic.Int64
	// ReadsByLevel counts completed reads per consistency level, indexed
	// by runtime.Level. The sum always equals Reads.
	ReadsByLevel [runtime.NumLevels]atomic.Int64
	// Errors counts ops the target rejected.
	Errors atomic.Int64
	// Sheds counts rejections that carried a retry-after hint (the target
	// shed the op under overload — or, for leveled reads, could not reach
	// the required freshness in time); every shed also counts as an error
	// unless a retry later succeeded. Retries counts retry attempts issued.
	Sheds, Retries atomic.Int64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Ops <= 0 {
		c.Ops = 10000
	}
	if c.ReadFraction < 0 || c.ReadFraction > 1 {
		c.ReadFraction = 0.9
	}
	if c.Keys <= 0 {
		c.Keys = 1024
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.ValueBytes <= 0 {
		c.ValueBytes = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ArrivalRate <= 0 {
		c.ArrivalRate = 1000
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 2 * time.Millisecond
	}
	if c.SessionReads < 0 {
		c.SessionReads = 0
	}
	if c.BoundedReads < 0 {
		c.BoundedReads = 0
	}
	if c.StrongReads < 0 {
		c.StrongReads = 0
	}
	if sum := c.SessionReads + c.BoundedReads + c.StrongReads; sum > 1 {
		c.SessionReads /= sum
		c.BoundedReads /= sum
		c.StrongReads /= sum
	}
	return c
}

// pickLevel draws one read's consistency level from the configured mix.
func (c Config) pickLevel(rng *rand.Rand) runtime.Level {
	if c.SessionReads+c.BoundedReads+c.StrongReads == 0 {
		// No draw: an unleveled config's op stream does not depend on the mix.
		return runtime.LevelEventual
	}
	u := rng.Float64()
	if u < c.SessionReads {
		return runtime.LevelSession
	}
	if u < c.SessionReads+c.BoundedReads {
		return runtime.LevelBounded
	}
	if u < c.SessionReads+c.BoundedReads+c.StrongReads {
		return runtime.LevelStrong
	}
	return runtime.LevelEventual
}

// Result summarises one load run.
type Result struct {
	// Ops completed (reads + writes); may stop short of Config.Ops when
	// the context expires mid-run.
	Ops, Reads, Writes int
	// Errors counts ops the target rejected.
	Errors int
	// Sheds counts rejections carrying a retry-after hint; Retries counts
	// retry attempts issued under Config.RetryBudget.
	Sheds, Retries int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// ReadLatency and WriteLatency hold per-op latencies in milliseconds.
	// ReadLatency aggregates every consistency level — comparable across
	// runs only when the level mix is fixed; use ReadLatencyAt for the
	// per-level view (a session read that waited for coverage is a
	// different operation than an eventual read, and lumping them hides
	// both tails).
	ReadLatency, WriteLatency *metrics.Sample
	// ReadLatencyByLevel splits read latency by consistency level, indexed
	// by runtime.Level. Levels never issued hold empty samples.
	ReadLatencyByLevel [runtime.NumLevels]*metrics.Sample
	// ReadsByLevel counts completed reads per level; the sum equals Reads.
	ReadsByLevel [runtime.NumLevels]int
}

// ReadLatencyAt returns the latency sample of one consistency level.
func (r Result) ReadLatencyAt(lvl runtime.Level) *metrics.Sample {
	return r.ReadLatencyByLevel[lvl]
}

// OpsPerSec returns completed-op throughput.
func (r Result) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf(
		"workload{ops=%d (%dr/%dw) errs=%d elapsed=%v %.0f ops/s read p50=%.3fms p99=%.3fms write p50=%.3fms p99=%.3fms}",
		r.Ops, r.Reads, r.Writes, r.Errors, r.Elapsed.Round(time.Millisecond), r.OpsPerSec(),
		r.ReadLatency.Median(), r.ReadLatency.Percentile(99),
		r.WriteLatency.Median(), r.WriteLatency.Percentile(99))
}

// Key formats the i-th key of the keyspace; exported so callers can preload
// or verify the same keys the generator touches.
func Key(i int) string { return fmt.Sprintf("key-%06d", i) }

// keyTable materialises the keyspace once per run, so workers index a
// shared read-only slice instead of formatting a key per op — key
// formatting is measurable driver overhead at millions of ops/sec, and it
// would otherwise pollute the target's measured latency.
func keyTable(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = Key(i)
	}
	return keys
}

// Run drives the keyspace with cfg's op mix until the op budget is spent or
// ctx expires, whichever comes first. Each worker is one logical client:
// it calls open once and issues its whole op stream — writes included,
// read-your-writes needs them on the session's token — through the Client
// it got (against a router, open is func() Client { return
// router.NewSession() }).
func Run(ctx context.Context, cfg Config, open func() Client) Result {
	cfg = cfg.withDefaults()

	keys := keyTable(cfg.Keys)
	var issued atomic.Int64
	var wg sync.WaitGroup
	results := make([]workerResult, cfg.Workers)
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = runWorker(ctx, cfg, open(), int64(w), keys, &issued, start)
		}(w)
	}
	wg.Wait()

	out := Result{
		Elapsed:      time.Since(start),
		ReadLatency:  metrics.NewSample(cfg.Ops),
		WriteLatency: metrics.NewSample(cfg.Ops),
	}
	for lvl := range out.ReadLatencyByLevel {
		out.ReadLatencyByLevel[lvl] = metrics.NewSample(cfg.Ops)
	}
	for _, r := range results {
		out.Reads += r.reads
		out.Writes += r.writes
		out.Errors += r.errors
		out.Sheds += r.sheds
		out.Retries += r.retries
		out.ReadLatency.Merge(r.readLat)
		out.WriteLatency.Merge(r.writeLat)
		for lvl, s := range r.readLatLvl {
			if s != nil {
				out.ReadLatencyByLevel[lvl].Merge(s)
			}
			out.ReadsByLevel[lvl] += r.readsLvl[lvl]
		}
	}
	out.Ops = out.Reads + out.Writes
	return out
}

type workerResult struct {
	reads, writes, errors int
	sheds, retries        int
	readLat, writeLat     *metrics.Sample
	readLatLvl            [runtime.NumLevels]*metrics.Sample
	readsLvl              [runtime.NumLevels]int
}

// shedHint reports whether err is a shed — a rejection whose source says
// when to retry (overload, not-fresh), as opposed to one that says gone —
// and the server's suggested wait when it is.
func shedHint(err error) (time.Duration, bool) {
	var rej *runtime.Rejection
	if errors.As(err, &rej) && rej.RetryAfter > 0 {
		return rej.RetryAfter, true
	}
	return 0, false
}

// opRetrying issues one op, retrying shed rejections (overload sheds and
// not-fresh reads alike) with jittered exponential backoff floored at the
// server's hint, up to cfg.RetryBudget attempts. It returns the final error and the shed/retry counts the
// attempt sequence produced.
func opRetrying(ctx context.Context, cfg Config, rng *rand.Rand, op func() error) (err error, sheds, retries int) {
	backoff := cfg.RetryBase
	for attempt := 0; ; attempt++ {
		err = op()
		hint, shed := (time.Duration)(0), false
		if err != nil {
			hint, shed = shedHint(err)
		}
		if err == nil || !shed {
			return err, sheds, retries
		}
		sheds++
		if attempt >= cfg.RetryBudget {
			return err, sheds, retries
		}
		wait := backoff
		if hint > wait {
			wait = hint
		}
		// ±50% jitter so synchronized shed victims don't re-arrive as a
		// thundering herd exactly one backoff later.
		wait = wait/2 + time.Duration(rng.Int63n(int64(wait)))
		backoff *= 2
		retries++
		select {
		case <-ctx.Done():
			return err, sheds, retries
		case <-time.After(wait):
		}
	}
}

// runWorker is one client goroutine: draw a key, issue the op, wait,
// record, repeat until the shared budget is gone. Closed-loop workers
// issue back-to-back; open-loop workers pace each op to its slot on the
// shared arrival schedule and measure latency from that scheduled arrival.
func runWorker(ctx context.Context, cfg Config, client Client, id int64, keys []string, issued *atomic.Int64, start time.Time) workerResult {
	rng := rand.New(rand.NewSource(cfg.Seed + id*6364136223846793005))
	var zipf *rand.Zipf
	if cfg.Dist == Zipf {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Keys-1))
	}
	value := make([]byte, cfg.ValueBytes)
	rng.Read(value)
	interval := time.Duration(0)
	if cfg.OpenLoop {
		interval = time.Duration(float64(time.Second) / cfg.ArrivalRate)
	}

	res := workerResult{
		readLat:  metrics.NewSample(cfg.Ops / cfg.Workers),
		writeLat: metrics.NewSample(cfg.Ops / cfg.Workers),
	}
	for lvl := range res.readLatLvl {
		res.readLatLvl[lvl] = metrics.NewSample(cfg.Ops / cfg.Workers)
	}
	for {
		slot := issued.Add(1) - 1
		if slot >= int64(cfg.Ops) {
			break
		}
		if ctx.Err() != nil {
			break
		}
		begin := time.Now()
		if cfg.OpenLoop {
			// The op is due at its slot on the global schedule. Early:
			// sleep until due. Late: issue immediately — the op still
			// carries its scheduled arrival as the latency origin, so time
			// spent stuck behind a slow target counts against the target.
			due := start.Add(time.Duration(slot) * interval)
			if wait := due.Sub(begin); wait > 0 {
				select {
				case <-ctx.Done():
					return res
				case <-time.After(wait):
				}
			}
			begin = due
		}
		var k int
		if zipf != nil {
			k = int(zipf.Uint64())
		} else {
			k = rng.Intn(cfg.Keys)
		}
		key := keys[k]
		if rng.Float64() < cfg.ReadFraction {
			lvl := cfg.pickLevel(rng)
			read := func() error {
				_, _, err := client.ReadVersioned(key, lvl)
				return err
			}
			err, sheds, retries := opRetrying(ctx, cfg, rng, read)
			res.sheds += sheds
			res.retries += retries
			if cfg.Progress != nil {
				cfg.Progress.Sheds.Add(int64(sheds))
				cfg.Progress.Retries.Add(int64(retries))
			}
			if err != nil {
				res.errors++
				if cfg.Progress != nil {
					cfg.Progress.Errors.Add(1)
				}
				continue
			}
			ms := float64(time.Since(begin)) / float64(time.Millisecond)
			res.readLat.Add(ms)
			res.readLatLvl[lvl].Add(ms)
			res.reads++
			res.readsLvl[lvl]++
			if cfg.Progress != nil {
				cfg.Progress.Reads.Add(1)
				cfg.Progress.ReadsByLevel[lvl].Add(1)
			}
		} else {
			write := func() error {
				_, err := client.Write(key, value)
				return err
			}
			err, sheds, retries := opRetrying(ctx, cfg, rng, write)
			res.sheds += sheds
			res.retries += retries
			if cfg.Progress != nil {
				cfg.Progress.Sheds.Add(int64(sheds))
				cfg.Progress.Retries.Add(int64(retries))
			}
			if err != nil {
				res.errors++
				if cfg.Progress != nil {
					cfg.Progress.Errors.Add(1)
				}
				continue
			}
			res.writeLat.Add(float64(time.Since(begin)) / float64(time.Millisecond))
			res.writes++
			if cfg.Progress != nil {
				cfg.Progress.Writes.Add(1)
			}
		}
	}
	return res
}
