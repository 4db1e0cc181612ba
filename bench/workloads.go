package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	numKeys      = 4096
	valueBytes   = 128
	zipfS        = 1.2
	clients      = 2 // closed-loop client goroutines: the sandbox has 2 cores
	watchTimeout = 5 * time.Second
	// The closed-loop workloads measure lag in a paced phase after the
	// measured window (see lagPhase): this rate, for 1/lagPhaseShare of the
	// measured duration.
	lagPhaseRate      = 2000
	lagPhaseShare     = 4
	lagPhaseLinkDelay = 2 * time.Millisecond

	durableRate       = 4000 // writes/s, Poisson
	durableReplicas   = 5
	durableWatchEvery = 20
	propRate          = 200 // writes/s, fixed spacing
	propReplicas      = 16
	propKeys          = 1024
)

// workloadSpec is one named workload. Why each exists is recorded in
// BENCHMARK.json and README.md.
type workloadSpec struct {
	name string
	run  func(rc runConfig) (*result, error)
}

var workloads = []workloadSpec{
	{"read_mostly", runReadMostly},
	{"session_mix", runSessionMix},
	{"durable_write", runDurableWrite},
	{"propagation", runPropagation},
}

type runConfig struct {
	seed     int64
	duration time.Duration
	warmup   time.Duration
	// The run sets the system up at least setupRounds times and for at least
	// setupFor; setup_s is the median, and the last system built is the one
	// measured.
	setupRounds int
	setupFor    time.Duration
	trace       bool
	withObs     bool
	spans       *spanLog // nil unless tracing
}

// keyNames are the keys every workload draws from.
var keyNames = func() []string {
	keys := make([]string, numKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	return keys
}()

// valuePool returns distinct immutable 128-byte values stamped with owner.
func valuePool(owner, n int) [][]byte {
	pool := make([][]byte, n)
	for i := range pool {
		v := make([]byte, valueBytes)
		copy(v, fmt.Sprintf("c%d-v%d-", owner, i))
		for j := 16; j < valueBytes; j++ {
			v[j] = byte(owner*31 + i + j)
		}
		pool[i] = v
	}
	return pool
}

// zipfKeys draws n key indexes in [0, keys) from a zipf(s) distribution.
func zipfKeys(rng *rand.Rand, keys, n int) []uint16 {
	z := rand.NewZipf(rng, zipfS, 1, uint64(keys-1))
	out := make([]uint16, n)
	for i := range out {
		out[i] = uint16(z.Uint64())
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// slices is how many equal parts the measured window is cut into. Every
// gated metric but setup_s is taken from the slices' own values (a slice's
// throughput, its CPU per op, its latency quantile), so that a disturbed
// second on a shared machine moves a few slices and not the result. Two
// rules, chosen per metric from the spread over ten seeds (README.md, Ground
// rules): the speed metrics (ops_per_s, cpu_us_per_op, write_p50_us) read
// the quiet quartile, the tail and lag metrics the median slice.
const slices = 40

// quietQuartile returns the quartile of v on its better side: the upper
// quartile of throughputs, the lower of costs and latencies. Other tenants of
// the host only ever slow the process down (on this sandbox by 10-30 % for
// seconds at a time, several times in a run), so the share of disturbed
// slices moves the median from run to run and leaves the fast side where it
// is; the quartile, not the best slice, so that it is not an extreme value.
func quietQuartile(v []float64, higherIsBetter bool) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if higherIsBetter {
		return s[len(s)-1-len(s)/4]
	}
	return s[len(s)/4]
}

// sliced is one histogram per slice of the measured window.
type sliced [slices]hist

// sliceOf returns the slice that item i of n falls into (ops by schedule
// position, or elapsed time of a span).
func sliceOf[T int | time.Duration](i, n T) int {
	return int(min(max(int64(i)*slices/int64(n), 0), slices-1))
}

func (s *sliced) merge(o *sliced) {
	for i := range s {
		s[i].merge(&o[i])
	}
}

// perSlice returns each non-empty slice's q-quantile, in nanoseconds.
func (s *sliced) perSlice(q float64) []float64 {
	var per []float64
	for i := range s {
		if s[i].n > 0 {
			per = append(per, s[i].quantile(q))
		}
	}
	return per
}

// quantile returns the median over the slices of each slice's q-quantile,
// in nanoseconds; 0 when nothing was recorded.
func (s *sliced) quantile(q float64) float64 {
	per := s.perSlice(q)
	if len(per) == 0 {
		return 0
	}
	return medianFloat(per)
}

// quietQuantile is quantile with the quiet quartile in place of the median.
func (s *sliced) quietQuantile(q float64) float64 {
	per := s.perSlice(q)
	if len(per) == 0 {
		return 0
	}
	return quietQuartile(per, false)
}

// all merges the slices into one histogram of the whole window.
func (s *sliced) all() *hist {
	var h hist
	for i := range s {
		h.merge(&s[i])
	}
	return &h
}

// sampler reads process CPU time and an op counter at every slice boundary.
type sampler struct {
	count func() uint64
	stop  chan struct{}
	done  chan struct{}
	at    []time.Time
	cpu   []time.Duration
	ops   []uint64
}

func startSampler(every time.Duration, count func() uint64) *sampler {
	s := &sampler{count: count, stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.sample()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

func (s *sampler) sample() {
	s.at = append(s.at, time.Now())
	s.cpu = append(s.cpu, cpuTime())
	s.ops = append(s.ops, s.count())
}

// finish stops the sampler and returns the quiet quartile over the slices
// of ops per second and of CPU microseconds per op. Slices in which no op
// finished are skipped.
func (s *sampler) finish() (opsPerSec, cpuUsPerOp float64) {
	close(s.stop)
	<-s.done
	var rate, cost []float64
	for i := 1; i < len(s.at); i++ {
		n := float64(s.ops[i] - s.ops[i-1])
		if n == 0 {
			continue
		}
		rate = append(rate, n/s.at[i].Sub(s.at[i-1]).Seconds())
		cost = append(cost, float64((s.cpu[i]-s.cpu[i-1]).Microseconds())/n)
	}
	if len(rate) == 0 {
		return 0, 0
	}
	return quietQuartile(rate, true), quietQuartile(cost, false)
}

// lagStats accumulates watched writes' propagation, timed from the ack.
type lagStats struct {
	mu                sync.Mutex
	full, top, bottom sliced
	timeouts          uint64
}

// add records watched write i of n.
func (l *lagStats) add(i, n int, res watchResult, tg lagTargets) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !res.ok {
		l.timeouts++
		return
	}
	var last time.Duration
	for _, d := range res.times {
		if d > last {
			last = d
		}
	}
	k := sliceOf(i, n)
	l.full[k].record(int64(last))
	for _, id := range tg.top {
		l.top[k].record(int64(res.times[id]))
	}
	for _, id := range tg.bottom {
		l.bottom[k].record(int64(res.times[id]))
	}
}

// medianSeconds returns the median of ds in seconds.
func medianSeconds(ds []time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = d.Seconds()
	}
	return medianFloat(v)
}

// roundSeed gives every set-up round its own replica and disk random
// streams: with one seed the rounds would time the same session schedule
// five times and their median would average nothing.
func roundSeed(seed int64, round int) int64 { return seed*100 + int64(round) }

// repeatSetup sets the system up at least rc.setupRounds times and for at
// least rc.setupFor, tearing down all but the last, and returns the
// per-round times.
func repeatSetup[T interface{ stop() }](rc runConfig, build func(round int) (T, error)) (T, []time.Duration, error) {
	var times []time.Duration
	begin := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := build(i)
		if err != nil {
			return s, nil, err
		}
		times = append(times, time.Since(t0))
		if len(times) >= rc.setupRounds && time.Since(begin) >= rc.setupFor {
			return s, times, nil
		}
		s.stop()
	}
}

// ---- closed-loop workloads on the router ----

const (
	opRead = iota
	opSessionRead
	opWrite
)

// closedPlan is one client's pre-generated op stream; it is cycled, so the
// generator costs the measured loop two slice loads per op.
type closedPlan struct {
	kind []uint8
	key  []uint16
}

const planOps = 1 << 20

func newClosedPlan(rng *rand.Rand, writeShare, sessionShareOfReads float64) closedPlan {
	p := closedPlan{kind: make([]uint8, planOps), key: zipfKeys(rng, numKeys, planOps)}
	for i := range p.kind {
		switch r := rng.Float64(); {
		case r < writeShare:
			p.kind[i] = opWrite
		case rng.Float64() < sessionShareOfReads:
			p.kind[i] = opSessionRead
		default:
			p.kind[i] = opRead
		}
	}
	return p
}

// closedClient is one closed-loop client's state and tallies.
type closedClient struct {
	id     int
	plan   closedPlan
	next   int
	values [][]byte
	nvals  int

	read, sessRead hist
	write          sliced
	ops, failed    uint64
	sessionReads   uint64
	done           atomic.Uint64 // ops, published every 256 for the sampler

	lastKey     string
	lastReceipt receipt
	haveWrite   bool
}

// routerOps is what a closed-loop client calls; read_mostly binds it to
// the router's plain doors, session_mix to one client's session.
type routerOps struct {
	read        func(key string) ([]byte, bool, error)
	sessionRead func(key string) ([]byte, bool, error)
	write       func(key string, value []byte) (receipt, error)
}

// runFor drives the client for span.
func (c *closedClient) runFor(span time.Duration, ops routerOps, spans *spanLog) {
	start := time.Now()
	deadline := start.Add(span)
	t0 := start
	for t0.Before(deadline) {
		i := c.next
		c.next = (i + 1) & (planOps - 1)
		key := keyNames[c.plan.key[i]]
		var ok bool
		var err error
		var h *hist
		var name string
		var v []byte
		switch c.plan.kind[i] {
		case opRead:
			v, ok, err = ops.read(key)
			h, name = &c.read, "client.read"
		case opSessionRead:
			v, ok, err = ops.sessionRead(key)
			h, name = &c.sessRead, "client.session_read"
			c.sessionReads++
		default:
			v = c.values[c.nvals%len(c.values)]
			c.nvals++
			var rc receipt
			if rc, err = ops.write(key, v); err == nil {
				ok = true
				c.lastKey, c.lastReceipt, c.haveWrite = key, rc, true
			}
			h, name = &c.write[sliceOf(t0.Sub(start), span)], "client.write"
		}
		t1 := time.Now()
		h.record(int64(t1.Sub(t0)))
		c.ops++
		if c.ops&255 == 0 {
			c.done.Store(c.ops)
		}
		if err != nil || !ok || len(v) != valueBytes {
			c.failed++
		}
		if spans != nil && c.ops&1023 == 0 {
			spans.add(name, uint64(c.id)<<48|c.ops, 0, t0, t1)
		}
		t0 = t1
	}
}

// lagPhase measures propagation lag on the router after the measured
// window: the shards' links are given propagation's 2 ms one-way delay, and
// lagPhaseRate paced writes a second go through Router.Write, each watched
// to full coverage. It exists because the driver takes every end-to-end
// metric from every workload (see README.md, End-to-end metrics); the
// generator and the lag bookkeeping are the open-loop workloads'. Two
// cheaper designs were measured and rejected. Sampling inside the closed
// loop: an active Watch makes every commit on every replica check it (one
// outstanding watch per client cost 7 % of ops_per_s on session_mix), and
// lag read under two saturated cores moved 15-25 % between runs of one
// commit. Watching paced writes on the no-delay links the measured window
// uses: those lags are two or three goroutine wake-ups (7 us a hop) and sat
// at 18 us or at 27 us from run to run, a spread of 47 % over ten seeds —
// scheduler noise, not the system. With a link delay lag is message rounds
// x 2 ms, as on propagation, here through the router's doors on 4-replica
// shards that have just served the workload.
func lagPhase(sut *routerSUT, rng *rand.Rand, span time.Duration, values [][]byte) (lag *lagStats, attempted, failed uint64) {
	due := fixedSchedule(lagPhaseRate, span)
	keys := zipfKeys(rng, numKeys, len(due))
	lag = &lagStats{}
	var errs atomic.Uint64
	sut.setLinkDelay(lagPhaseLinkDelay)
	defer sut.setLinkDelay(0)
	runOpenLoop(time.Now(), due, func(i int, _ time.Time) {
		rc, err := sut.write(keyNames[keys[i]], values[i%len(values)])
		if err != nil {
			errs.Add(1)
			return
		}
		res, tg, err := sut.watch(rc, watchTimeout)
		if err != nil {
			errs.Add(1)
			return
		}
		lag.add(i, len(due), res, tg)
	})
	return lag, uint64(len(due)), errs.Load() + lag.timeouts
}

// closedRun is the shared body of read_mostly and session_mix.
func closedRun(rc runConfig, name string, writeShare, sessionShare float64, useSessions bool) (*result, error) {
	res := newResult(name, rc)
	preload := valuePool(99, 1)[0]
	sut, setups, err := repeatSetup(rc, func(round int) (*routerSUT, error) {
		s, err := newRouterSUT(roundSeed(rc.seed, round), rc.withObs)
		if err != nil {
			return nil, err
		}
		for _, k := range keyNames {
			if _, err := s.write(k, preload); err != nil {
				s.stop()
				return nil, fmt.Errorf("preload %s: %w", k, err)
			}
		}
		if !s.waitConverged(10 * time.Second) {
			s.stop()
			return nil, fmt.Errorf("preload did not converge")
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	defer sut.stop()

	cl := make([]*closedClient, clients)
	ops := make([]routerOps, clients)
	sessions := make([]*sessionSUT, clients)
	for i := range cl {
		rng := rand.New(rand.NewSource(rc.seed*1000 + int64(i) + 1))
		cl[i] = &closedClient{id: i, plan: newClosedPlan(rng, writeShare, sessionShare), values: valuePool(i, 64)}
		if useSessions {
			sess := sut.newSession()
			sessions[i] = sess
			ops[i] = routerOps{read: sess.readEventual, sessionRead: sess.readSession, write: sess.write}
		} else {
			ops[i] = routerOps{read: sut.read, sessionRead: sut.read, write: sut.write}
		}
	}
	phase := func(span time.Duration, spans *spanLog) {
		var wg sync.WaitGroup
		for i := range cl {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl[i].runFor(span, ops[i], spans)
			}()
		}
		wg.Wait()
	}
	phase(rc.warmup, nil)
	for _, c := range cl {
		c.read, c.sessRead, c.write = hist{}, hist{}, sliced{}
		c.ops, c.failed = 0, 0
		c.done.Store(0)
	}
	stats0, t0 := sut.stats(), time.Now()
	smp := startSampler(rc.duration/slices, func() uint64 {
		var n uint64
		for _, c := range cl {
			n += c.done.Load()
		}
		return n
	})
	phase(rc.duration, rc.spans)
	opsPerSec, cpuPerOp := smp.finish()
	wall, stats := time.Since(t0), sut.stats().sub(stats0)
	lagRng := rand.New(rand.NewSource(rc.seed*1000 + 99))
	lag, lagOps, lagFailed := lagPhase(sut, lagRng, rc.duration/lagPhaseShare, valuePool(9, 64))

	var read, sessRead hist
	var write sliced
	var attempted, failed, sessionReads uint64
	for _, c := range cl {
		read.merge(&c.read)
		sessRead.merge(&c.sessRead)
		write.merge(&c.write)
		attempted += c.ops
		failed += c.failed
		sessionReads += c.sessionReads
	}
	res.check("converged", sut.waitConverged(10*time.Second))
	res.check("digests_agree", sut.digestsAgree())
	if useSessions {
		own := true
		for i, c := range cl {
			if !c.haveWrite {
				continue
			}
			got, err := sessions[i].readsOwnWrite(c.lastKey, c.lastReceipt)
			own = own && got && err == nil
		}
		res.check("reads_own_write", own)
	}
	res.finish(attempted+lagOps, failed+lagFailed, true)

	res.e2e("setup_s", medianSeconds(setups), "s", uint64(len(setups)))
	res.e2e("ops_per_s", opsPerSec, "1/s", attempted)
	res.e2e("cpu_us_per_op", cpuPerOp, "us", attempted)
	res.writeLatency(&write)
	res.lagMetrics(lag)
	res.extra("read_p50_ns", read.quantile(0.5), "ns", read.n)
	res.extra("read_p99_us", read.quantile(0.99)/1e3, "us", read.n)
	if useSessions {
		res.extra("session_read_p50_ns", sessRead.quantile(0.5), "ns", sessRead.n)
		res.extra("session_read_p99_us", sessRead.quantile(0.99)/1e3, "us", sessRead.n)
	}
	res.proto = stats
	res.wall = wall
	res.replicas = sut.replicas()
	res.obs = readObs(sut.reg)
	res.sessionReads = sessionReads
	return res, nil
}

func runReadMostly(rc runConfig) (*result, error) {
	return closedRun(rc, "read_mostly", 0.05, 0, false)
}

func runSessionMix(rc runConfig) (*result, error) {
	return closedRun(rc, "session_mix", 0.20, 0.5, true)
}

// ---- open-loop workloads on one cluster ----

// openPlan is the seeded input of an open-loop run.
type openPlan struct {
	due    []time.Duration
	origin []uint8
	key    []uint16
}

func newOpenPlan(rng *rand.Rand, due []time.Duration, replicas, keys int) openPlan {
	p := openPlan{due: due, origin: make([]uint8, len(due)), key: zipfKeys(rng, keys, len(due))}
	for i := range p.origin {
		p.origin[i] = uint8(rng.Intn(replicas))
	}
	return p
}

// openTally is what the op goroutines of an open-loop phase record.
type openTally struct {
	mu       sync.Mutex
	ack      sliced // due → ack
	failed   uint64
	maxAcked []uint64      // per origin, highest acknowledged sequence
	acked    atomic.Uint64 // for the sampler
}

// openPhase issues plan against sut and waits for every op and watch.
func openPhase(sut *clusterSUT, plan openPlan, watchEvery int, values [][]byte, tally *openTally, lag *lagStats, spans *spanLog) (*openLoopStats, time.Duration) {
	start := time.Now()
	var lastAck time.Time
	st := runOpenLoop(start, plan.due, func(i int, due time.Time) {
		origin := int(plan.origin[i])
		issued := time.Now()
		seq, err := sut.write(origin, keyNames[plan.key[i]], values[i%len(values)])
		acked := time.Now()
		tally.mu.Lock()
		if err != nil {
			tally.failed++
		} else {
			tally.ack[sliceOf(i, len(plan.due))].record(int64(acked.Sub(due)))
			tally.acked.Add(1)
			if seq > tally.maxAcked[origin] {
				tally.maxAcked[origin] = seq
			}
			if acked.After(lastAck) {
				lastAck = acked
			}
		}
		tally.mu.Unlock()
		if spans != nil {
			id := uint64(i) + 1
			spans.add("client.op", id, 0, due, acked)
			spans.add("harness.issue_wait", id, id, due, issued)
			spans.add("cluster.write", id, id, issued, acked)
		}
		if err != nil || i%watchEvery != 0 {
			return
		}
		res := sut.watch(origin, seq, watchTimeout)
		lag.add(i, len(plan.due), res, sut.lagSet[origin])
		if spans != nil && res.ok {
			id := uint64(i) + 1
			spans.add("watch.full_coverage", id, id, acked, time.Now())
		}
	})
	if lastAck.IsZero() {
		lastAck = time.Now()
	}
	return st, lastAck.Sub(start)
}

// openRun is the shared body of durable_write and propagation.
func openRun(rc runConfig, name string, cfg clusterCfg, keys, watchEvery int, schedule func(*rand.Rand, time.Duration) []time.Duration) (*result, *clusterSUT, *openTally, error) {
	res := newResult(name, rc)
	cfg.withObs = rc.withObs
	values := valuePool(7, 64)
	sut, setups, err := repeatSetup(rc, func(round int) (*clusterSUT, error) {
		cfg.seed = roundSeed(rc.seed, round)
		s, err := newClusterSUT(cfg)
		if err != nil {
			return nil, err
		}
		// Preload in parallel: on the model disk a lone writer pays two
		// syncs per key, 64 writers share them through group commit.
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for w := 0; w < 64; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := w; k < keys; k += 64 {
					if _, err := s.write(k%cfg.n, keyNames[k], values[0]); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errs:
			s.stop()
			return nil, fmt.Errorf("preload: %w", err)
		default:
		}
		if !s.waitConverged(10 * time.Second) {
			s.stop()
			return nil, fmt.Errorf("preload did not converge")
		}
		return s, nil
	})
	if err != nil {
		return nil, nil, nil, err
	}

	rng := rand.New(rand.NewSource(rc.seed*1000 + 17))
	warm := newOpenPlan(rng, schedule(rng, rc.warmup), cfg.n, keys)
	plan := newOpenPlan(rng, schedule(rng, rc.duration), cfg.n, keys)
	tally := &openTally{maxAcked: make([]uint64, cfg.n)}
	openPhase(sut, warm, watchEvery, values, tally, &lagStats{}, nil)
	tally.ack, tally.failed = sliced{}, 0

	lag := &lagStats{}
	var disk0 diskCounts
	if sut.disk != nil {
		disk0 = sut.disk.counts()
	}
	stats0 := sut.stats()
	smp := startSampler(rc.duration/slices, tally.acked.Load)
	gen, wall := openPhase(sut, plan, watchEvery, values, tally, lag, rc.spans)
	opsPerSec, cpuPerOp := smp.finish()
	stats := sut.stats().sub(stats0)

	attempted := uint64(len(plan.due))
	failed := tally.failed + lag.timeouts
	okOps := attempted - tally.failed

	res.check("converged", sut.waitConverged(10*time.Second))
	res.check("digests_agree", sut.digestsAgree())
	res.finish(attempted, failed, gen.valid())

	res.e2e("setup_s", medianSeconds(setups), "s", uint64(len(setups)))
	res.e2e("ops_per_s", opsPerSec, "1/s", okOps)
	res.e2e("cpu_us_per_op", cpuPerOp, "us", okOps)
	res.writeLatency(&tally.ack)
	res.lagMetrics(lag)
	res.extra("gen_late_p99_us", gen.lateP99us(), "us", gen.issued)
	res.extra("gen_late_window_p99_us", gen.late.all().quantile(0.99)/1e3, "us", gen.issued)
	res.extra("peak_inflight", float64(gen.peakInflight), "count", gen.issued)
	res.gen = gen
	res.proto = stats
	res.wall = wall
	res.replicas = cfg.n
	res.obs = readObs(sut.reg)
	if sut.disk != nil {
		d := sut.disk.counts()
		res.disk = &diskCounts{
			writes:     d.writes - disk0.writes,
			writeBytes: d.writeBytes - disk0.writeBytes,
			syncs:      d.syncs - disk0.syncs,
			writeP50us: d.writeP50us,
		}
	}
	return res, sut, tally, nil
}

func runDurableWrite(rc runConfig) (*result, error) {
	res, sut, tally, err := openRun(rc, "durable_write",
		clusterCfg{n: durableReplicas, durable: true}, numKeys, durableWatchEvery,
		func(rng *rand.Rand, span time.Duration) []time.Duration {
			return poissonSchedule(rng, durableRate, span)
		})
	if err != nil {
		return nil, err
	}
	defer sut.stop()
	// Power cut: the replica that acknowledged the most must still hold its
	// highest acknowledged write after losing everything unsynced.
	victim := 0
	for id, seq := range tally.maxAcked {
		if seq > tally.maxAcked[victim] {
			victim = id
		}
	}
	survived, err := sut.powerCut(victim, tally.maxAcked[victim])
	if err != nil {
		return nil, fmt.Errorf("power cut: %w", err)
	}
	lost := 0.0
	if !survived {
		lost = 1
	}
	res.extra("acked_lost", lost, "count", 1)
	res.extra("ack_p50_ms", res.EndToEnd["write_p50_us"].Value/1e3, "ms", res.EndToEnd["write_p50_us"].N)
	res.extra("ack_p99_ms", res.EndToEnd["write_p99_us"].Value/1e3, "ms", res.EndToEnd["write_p99_us"].N)
	res.check("acked_survive_power_cut", survived)
	res.check("converged_after_power_cut", sut.waitConverged(10*time.Second))
	return res, nil
}

func runPropagation(rc runConfig) (*result, error) {
	res, sut, _, err := openRun(rc, "propagation",
		clusterCfg{n: propReplicas, linkDelay: 2 * time.Millisecond, session: 100 * time.Millisecond, advert: 20 * time.Millisecond},
		propKeys, 1,
		func(_ *rand.Rand, span time.Duration) []time.Duration {
			return fixedSchedule(propRate, span)
		})
	if err != nil {
		return nil, err
	}
	defer sut.stop()
	// The paper's ordering: if this flips the system is wrong, not slow.
	top, bottom := res.EndToEnd["lag_top_p50_ms"], res.EndToEnd["lag_bottom_p50_ms"]
	res.check("top_demand_first", top.N > 0 && bottom.N > 0 && top.Value < bottom.Value)
	return res, nil
}
