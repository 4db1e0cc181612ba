package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/demand"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// CheckResult is one invariant verdict. Detail is deterministic for passing
// checks (empty); Obs carries wall-clock measurements and is excluded from
// Verdict so verdicts stay byte-identical across runs.
type CheckResult struct {
	Name   string
	Pass   bool
	Detail string
	Obs    string
}

// Report is the outcome of one scenario run.
type Report struct {
	Scenario Scenario
	Checks   []CheckResult

	// Observations (not part of the verdict).
	Acked, TrackedKeys, AtRisk int
	LoadOps, LoadErrs          int
	Elapsed                    time.Duration
}

func (r *Report) add(c CheckResult) { r.Checks = append(r.Checks, c) }

// Passed reports whether every invariant held.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Verdict renders the per-invariant results. For a passing run the output
// is a deterministic function of the scenario alone (seed contract).
func (r *Report) Verdict() string {
	var b strings.Builder
	failed := 0
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(&b, "  %s %s", status, c.Name)
		if !c.Pass && c.Detail != "" {
			fmt.Fprintf(&b, " — %s", c.Detail)
		}
		b.WriteByte('\n')
	}
	if failed == 0 {
		fmt.Fprintf(&b, "verdict: PASS (%d checks)\n", len(r.Checks))
	} else {
		fmt.Fprintf(&b, "verdict: FAIL (%d/%d checks failed)\n", failed, len(r.Checks))
	}
	return b.String()
}

// Observations renders wall-clock measurements — useful for humans, not
// reproducible byte-for-byte.
func (r *Report) Observations() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  elapsed %v, %d ops applied (%d errors), %d writes acked over %d keys (%d at-risk)\n",
		r.Elapsed.Round(time.Millisecond), r.LoadOps, r.LoadErrs, r.Acked, r.TrackedKeys, r.AtRisk)
	for _, c := range r.Checks {
		if c.Obs != "" {
			fmt.Fprintf(&b, "  %s: %s\n", c.Name, c.Obs)
		}
	}
	return b.String()
}

// engine executes one scenario. Events run on a single goroutine; only the
// tracker and the system under test are shared with workload goroutines.
type engine struct {
	sc      Scenario
	rep     *Report
	tracker *tracker
	start   time.Time

	// Single-cluster mode.
	cluster *runtime.Cluster
	mfield  *demand.Mutable
	base    demand.Static
	flipped bool
	// ffs is the storage fault injector under every durable single-cluster
	// WAL; disk events (EvDiskSlow, EvDiskDie, EvDiskFull, EvDiskHeal,
	// EvPowerCut) arm it. Fault-free it is a pure passthrough.
	ffs *vfs.FaultFS

	// Router mode.
	router *shard.Router

	// dataDir roots durable replicas' WALs; ownDataDir marks a temporary
	// directory the engine created (and removes after the run).
	dataDir    string
	ownDataDir bool

	dead     map[ackLoc]bool
	prevVers map[ackLoc]map[string]store.Versioned

	// probeWrites counts successful probe writes, which go straight to the
	// cluster and bypass the tracker — the metrics-consistency check needs
	// them to reconcile the scraped acked-write counter against the
	// tracker's count. Only the single events goroutine touches it.
	probeWrites int

	// Overload mode (sc.Admission != nil). bursting selects which workload
	// loadLoop's next round runs; roundCancel interrupts the in-flight
	// round so burst transitions take effect promptly. The marks bracket
	// the burst for the goodput-recovery gate: acked-write counts and times
	// at burst start / burst stop (events goroutine only).
	bursting    atomic.Bool
	roundCancel atomic.Pointer[context.CancelFunc]
	burstMark   struct {
		started, stopped      bool
		startAcked, stopAcked int
		startAt, stopAt       time.Time
	}

	// Written by loadLoop before it signals done; read only after.
	loadOps, loadErrs int
}

// Run executes the scenario against a freshly built live system and reports
// every invariant check. The returned error covers engine failures
// (malformed schedules, replicas that refuse to restart); invariant
// violations are reported through the Report, not the error.
func Run(ctx context.Context, sc Scenario) (*Report, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Admission != nil && sc.Obs == nil {
		// The overload gates scrape shed counters and sojourn histograms, so
		// an admission-armed scenario always runs with the observability
		// plane wired in (execution-only; the schedule is unaffected).
		sc.Obs = obs.NewRegistry()
	}
	e := &engine{
		sc:       sc,
		rep:      &Report{Scenario: sc},
		dead:     make(map[ackLoc]bool),
		prevVers: make(map[ackLoc]map[string]store.Versioned),
	}
	return e.run(ctx)
}

func (e *engine) run(ctx context.Context) (*Report, error) {
	rng := rand.New(rand.NewSource(e.sc.Seed))
	runCtx, stopAll := context.WithCancel(ctx)
	defer stopAll()
	if e.sc.Durable {
		e.dataDir = e.sc.DataDir
		if e.dataDir == "" {
			dir, err := os.MkdirTemp("", "chaos-wal-")
			if err != nil {
				return nil, fmt.Errorf("chaos: durable data dir: %w", err)
			}
			e.dataDir, e.ownDataDir = dir, true
		}
		defer func() {
			if e.ownDataDir {
				os.RemoveAll(e.dataDir)
			}
		}()
	}
	if e.sc.Shards > 1 {
		if err := e.buildRouter(runCtx, rng); err != nil {
			return nil, err
		}
		defer e.router.Stop()
	} else {
		if err := e.buildCluster(runCtx, rng); err != nil {
			return nil, err
		}
		defer e.cluster.Stop()
	}

	loadCtx, stopLoad := context.WithCancel(runCtx)
	loadDone := make(chan struct{})
	go e.loadLoop(loadCtx, loadDone)
	defer func() {
		stopLoad()
		<-loadDone
		e.rep.Elapsed = time.Since(e.start)
		e.rep.LoadOps, e.rep.LoadErrs = e.loadOps, e.loadErrs
		e.rep.Acked, e.rep.TrackedKeys, e.rep.AtRisk = e.tracker.counts()
	}()

	e.start = time.Now()
	for i, ev := range e.sc.Events {
		if d := time.Until(e.start.Add(ev.At)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return e.rep, ctx.Err()
			}
		}
		if err := e.apply(ctx, i, ev); err != nil {
			return e.rep, fmt.Errorf("event %d (%v): %w", i, ev, err)
		}
	}
	e.finalChecks(ctx)
	return e.rep, nil
}

func (e *engine) buildCluster(ctx context.Context, rng *rand.Rand) error {
	n := e.sc.Nodes
	g := buildGraph(e.sc.Topology, n, rng)
	e.base = e.sc.Field
	if e.base == nil {
		e.base = demand.Uniform(n, 1, 101, rng)
	}
	e.mfield = demand.NewMutable(e.base)
	opts := []runtime.Option{
		runtime.WithSeed(e.sc.Seed),
		runtime.WithSessionInterval(e.sc.SessionInterval),
		runtime.WithAdvertInterval(e.sc.AdvertInterval),
	}
	if e.sc.Durable {
		e.ffs = vfs.NewFaultFS(vfs.OS, e.sc.Seed)
		opts = append(opts,
			runtime.WithDurability(filepath.Join(e.dataDir, "cluster")),
			runtime.WithDurabilityFS(e.ffs))
		if e.sc.WALTuning != nil {
			opts = append(opts, runtime.WithDurabilityTuning(*e.sc.WALTuning))
		}
	}
	if e.sc.Obs != nil {
		opts = append(opts, runtime.WithObs(obs.NewClusterObs(e.sc.Obs, n)))
	}
	if e.sc.Admission != nil {
		opts = append(opts, runtime.WithAdmission(*e.sc.Admission))
	}
	e.cluster = runtime.New(g, e.mfield, opts...)
	if err := e.cluster.Start(ctx); err != nil {
		return err
	}
	next := new(atomic.Uint64)
	e.tracker = newTracker(func() workload.Client {
		sess := e.cluster.NewSession()
		sess.Deadline = sessionFreshDeadline
		return &clusterClient{sess: sess, next: next, n: n}
	})
	if e.sc.Sessions {
		e.tracker.oracle = newSessionOracle()
	}
	return nil
}

func (e *engine) buildRouter(ctx context.Context, rng *rand.Rand) error {
	specs := make([]shard.GroupSpec, e.sc.Shards)
	for i := range specs {
		specs[i] = e.groupSpec(fmt.Sprintf("shard%d", i), rng)
	}
	cfg := shard.Config{
		Seed: e.sc.Seed,
		RuntimeOptions: []runtime.Option{
			runtime.WithSessionInterval(e.sc.SessionInterval),
			runtime.WithAdvertInterval(e.sc.AdvertInterval),
		},
	}
	if e.sc.Admission != nil {
		cfg.RuntimeOptions = append(cfg.RuntimeOptions, runtime.WithAdmission(*e.sc.Admission))
	}
	if e.sc.Durable {
		cfg.DataDir = e.dataDir
	}
	cfg.Obs = e.sc.Obs
	r, err := shard.NewRouter(specs, cfg)
	if err != nil {
		return err
	}
	if err := r.Start(ctx); err != nil {
		return err
	}
	e.router = r
	e.tracker = newTracker(func() workload.Client {
		sess := r.NewSession()
		sess.Deadline = sessionFreshDeadline
		return sess
	})
	if e.sc.Sessions {
		e.tracker.oracle = newSessionOracle()
	}
	return nil
}

// groupSpec builds one shard group's spec deterministically from rng.
func (e *engine) groupSpec(name string, rng *rand.Rand) shard.GroupSpec {
	k := e.sc.Nodes
	field := e.sc.Field
	if field == nil {
		field = demand.Uniform(k, 1, 101, rng)
	}
	return shard.GroupSpec{Name: name, Graph: buildGraph(e.sc.Topology, k, rng), Field: field}
}

// loadLoop applies background traffic in rounds until cancelled. Each
// round runs the normal Load — or the Burst workload while an EvBurst is
// in effect — under a per-round context the events goroutine can cancel,
// so burst transitions don't wait out a long normal round.
func (e *engine) loadLoop(ctx context.Context, done chan struct{}) {
	defer close(done)
	for ctx.Err() == nil {
		roundCtx, cancel := context.WithCancel(ctx)
		e.roundCancel.Store(&cancel)
		cfg := e.sc.Load
		if e.bursting.Load() && e.sc.Burst != nil {
			cfg = *e.sc.Burst
		}
		res := workload.Run(roundCtx, cfg, e.tracker.client)
		cancel()
		e.loadOps += res.Ops
		e.loadErrs += res.Errors
		if res.Ops == 0 {
			// Everything failing instantly (total outage): don't spin hot.
			select {
			case <-ctx.Done():
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
}

// interruptRound cancels loadLoop's in-flight workload round (if any) so
// the next round picks up the new burst state immediately.
func (e *engine) interruptRound() {
	if cancel := e.roundCancel.Load(); cancel != nil {
		(*cancel)()
	}
}

// clustersFor resolves the clusters an event targets: the single cluster,
// one named group, or every group ("" in router mode).
func (e *engine) clustersFor(shardName string) ([]*runtime.Cluster, error) {
	if e.router == nil {
		return []*runtime.Cluster{e.cluster}, nil
	}
	if shardName == "" {
		var out []*runtime.Cluster
		for _, name := range e.router.Shards() {
			if g, ok := e.router.Group(name); ok {
				out = append(out, g.Cluster())
			}
		}
		return out, nil
	}
	g, ok := e.router.Group(shardName)
	if !ok {
		return nil, fmt.Errorf("chaos: no shard %q", shardName)
	}
	return []*runtime.Cluster{g.Cluster()}, nil
}

func (e *engine) apply(ctx context.Context, idx int, ev Event) error {
	clusters, err := e.clustersFor(ev.Shard)
	if err != nil && ev.Kind != EvAddShard {
		return err
	}
	faults := func(f func(transport.Faults)) {
		for _, c := range clusters {
			if flt := c.Faults(); flt != nil {
				f(flt)
			}
		}
	}
	switch ev.Kind {
	case EvPartition:
		faults(func(f transport.Faults) { f.PartitionSets(ev.Nodes, ev.Peers) })
	case EvHeal:
		faults(func(f transport.Faults) { f.HealAll() })
	case EvSetLoss:
		faults(func(f transport.Faults) { f.SetLoss(ev.Rate) })
	case EvSetLatency:
		faults(func(f transport.Faults) { f.SetLatency(ev.Latency, ev.Jitter) })
	case EvKill:
		for _, id := range ev.Nodes {
			if err := clusters[0].Kill(id); err != nil {
				return err
			}
			e.dead[ackLoc{shard: ev.Shard, node: id}] = true
		}
	case EvRestart:
		for _, id := range ev.Nodes {
			loc := ackLoc{shard: ev.Shard, node: id}
			// Mark before the replica is reborn: once Restart returns it
			// acks writes again, and those must stay durability-required.
			e.tracker.markLost(loc) // empty-state restart: unreplicated acks died
			if err := clusters[0].Restart(id); err != nil {
				return err
			}
			delete(e.dead, loc)
			delete(e.prevVers, loc) // fresh store: prior versions are moot
		}
	case EvRestartPreserve:
		for _, id := range ev.Nodes {
			if err := clusters[0].RestartPreserving(id); err != nil {
				return err
			}
			delete(e.dead, ackLoc{shard: ev.Shard, node: id})
		}
	case EvRestartDisk:
		// Disk recovery preserves every synced (= every acknowledged)
		// write, so unlike EvRestart nothing is reclassified at-risk.
		for _, id := range ev.Nodes {
			if err := e.restartFromDisk(ctx, clusters[0], id); err != nil {
				return err
			}
			delete(e.dead, ackLoc{shard: ev.Shard, node: id})
		}
	case EvDemandFlip:
		if e.flipped {
			e.mfield.Set(e.base)
		} else {
			e.mfield.Set(demand.Invert(e.base))
		}
		e.flipped = !e.flipped
	case EvAddShard:
		rng := rand.New(rand.NewSource(e.sc.Seed ^ int64(hashBytes([]byte(ev.Shard)))))
		spec := e.groupSpec(ev.Shard, rng)
		e.tracker.beginReshard()
		err := e.router.AddShard(spec)
		e.tracker.endReshard()
		if err != nil {
			return err
		}
	case EvRemoveShard:
		// Dead replicas leave the handoff union: their unreplicated acks
		// are lost with the group.
		for loc := range e.dead {
			if loc.shard == ev.Shard {
				e.tracker.markLost(loc)
				delete(e.dead, loc)
			}
		}
		e.tracker.beginReshard()
		err := e.router.RemoveShard(ev.Shard)
		e.tracker.endReshard()
		if err != nil {
			return err
		}
		for loc := range e.prevVers {
			if loc.shard == ev.Shard {
				delete(e.prevVers, loc)
			}
		}
	case EvQuiesce:
		e.quiesce(ctx, fmt.Sprintf("e%d", idx), false)
	case EvProbe:
		e.rep.add(e.probe(ctx, fmt.Sprintf("e%d", idx)))
	case EvDiskSlow:
		for _, scope := range diskScopes(ev.Nodes) {
			e.ffs.SetSyncDelay(scope, ev.Latency, ev.Ramp, ev.Jitter)
		}
	case EvDiskDie:
		for _, scope := range diskScopes(ev.Nodes) {
			if ev.Count > 0 {
				e.ffs.FailNextSyncs(scope, ev.Count)
			} else {
				e.ffs.FailSyncs(scope)
				e.ffs.FailWrites(scope)
			}
		}
	case EvDiskFull:
		for _, scope := range diskScopes(ev.Nodes) {
			e.ffs.SetByteBudget(scope, ev.Budget)
		}
	case EvDiskHeal:
		if len(ev.Nodes) == 0 {
			e.ffs.HealAll()
		} else {
			for _, scope := range diskScopes(ev.Nodes) {
				e.ffs.Heal(scope)
			}
		}
	case EvPowerCut:
		// The machines lose power first (SIGKILL-equivalent from the
		// replica's view), then the unsynced suffix of their WAL bytes
		// evaporates. Victims are tracked dead exactly like EvKill; revival
		// is EvRestartDisk.
		for _, id := range ev.Nodes {
			if err := clusters[0].Kill(id); err != nil {
				return err
			}
			e.dead[ackLoc{shard: ev.Shard, node: id}] = true
		}
		for _, scope := range diskScopes(ev.Nodes) {
			e.ffs.Cut(scope)
		}
	case EvBurst:
		if !e.burstMark.started {
			acked, _, _ := e.tracker.counts()
			e.burstMark.started = true
			e.burstMark.startAcked, e.burstMark.startAt = acked, time.Now()
		}
		e.bursting.Store(true)
		e.interruptRound()
	case EvBurstStop:
		e.bursting.Store(false)
		e.interruptRound()
		acked, _, _ := e.tracker.counts()
		e.burstMark.stopped = true
		e.burstMark.stopAcked, e.burstMark.stopAt = acked, time.Now()
	}
	return nil
}

// diskScopes resolves a disk event's FaultFS scopes: one per targeted
// replica's WAL directory (runtime shapes them as <base>/n<id>/...), or the
// whole tree when Nodes is empty.
func diskScopes(nodes []NodeID) []string {
	if len(nodes) == 0 {
		return []string{""}
	}
	out := make([]string, len(nodes))
	for i, id := range nodes {
		out[i] = fmt.Sprintf("%cn%d%c", filepath.Separator, id, filepath.Separator)
	}
	return out
}

// restartFromDisk revives one replica from its WAL. Disk-death fail-stops
// land asynchronously (the maintenance sync trips the sticky error some
// milliseconds after the fault is armed), so if the victim is still up the
// engine waits out its collapse first; Kill-style schedules find it already
// dead and don't wait.
func (e *engine) restartFromDisk(ctx context.Context, c *runtime.Cluster, id NodeID) error {
	deadline := time.Now().Add(10 * time.Second)
	for c.Alive(id) && time.Now().Before(deadline) && ctx.Err() == nil {
		time.Sleep(2 * time.Millisecond)
	}
	return c.RestartFromDisk(id)
}

// clearFaults returns every network to a fault-free state (partitions
// healed, zero loss and latency) ahead of the final settling.
func (e *engine) clearFaults() {
	clusters, _ := e.clustersFor("")
	for _, c := range clusters {
		if f := c.Faults(); f != nil {
			f.HealAll()
			f.SetLoss(0)
			f.SetLatency(0, 0)
		}
	}
}

// finalChecks heals everything, settles, and verifies all invariants
// including durability. Replicas still dead stay dead — their unreplicated
// acks are reclassified at-risk first.
func (e *engine) finalChecks(ctx context.Context) {
	// Capture the recovery end mark before quiesce pauses traffic: the
	// goodput-recovery gate rates the burst-stop → here window, which is
	// live load time only.
	var endAcked int
	var endAt time.Time
	if e.sc.Admission != nil && e.burstMark.stopped {
		endAcked, _, _ = e.tracker.counts()
		endAt = time.Now()
	}
	e.clearFaults()
	for loc := range e.dead {
		e.tracker.markLost(loc)
	}
	e.quiesce(ctx, "final", true)
	if e.sc.Admission != nil {
		e.overloadChecks(endAcked, endAt)
	}
	if e.sc.Sessions {
		e.sessionChecks()
	}
}

// overloadChecks verifies the admission plane's contract after an
// overload scenario: shedding visibly engaged, combining-queue sojourn
// stayed bounded, and goodput recovered once the burst ended. Runs only
// when sc.Admission is set (and therefore sc.Obs is wired).
func (e *engine) overloadChecks(endAcked int, endAt time.Time) {
	shed := int(e.sc.Obs.Total("repro_admission_shed_total"))
	sres := CheckResult{
		Name: "final/overload-shedding",
		Pass: shed > 0,
		Obs:  fmt.Sprintf("%d writes shed", shed),
	}
	if shed == 0 {
		sres.Obs = ""
		sres.Detail = "admission plane never shed a write despite the overload schedule"
	}
	e.rep.add(sres)

	// Sojourn bound: the controller's whole point is that queue delay stays
	// near Target even at 10x offered load. The bound is generous — an
	// unbounded queue under a flood overshoots it by orders of magnitude.
	const sojournBound = 500 * time.Millisecond
	var merged obs.HistSnapshot
	for _, h := range e.sc.Obs.Histograms("repro_commit_queue_sojourn_seconds") {
		merged.Merge(h.Snapshot())
	}
	p99 := time.Duration(merged.Quantile(0.99) * float64(time.Second))
	bres := CheckResult{
		Name: "final/bounded-sojourn",
		Pass: merged.Count > 0 && p99 <= sojournBound,
		Obs: fmt.Sprintf("sojourn p50=%v p99=%v over %d batches",
			time.Duration(merged.Quantile(0.50)*float64(time.Second)).Round(time.Microsecond),
			p99.Round(time.Microsecond), merged.Count),
	}
	if !bres.Pass {
		bres.Obs = ""
		if merged.Count == 0 {
			bres.Detail = "no batch sojourns observed"
		} else {
			bres.Detail = fmt.Sprintf("sojourn p99 %v exceeds %v", p99.Round(time.Millisecond), sojournBound)
		}
	}
	e.rep.add(bres)

	if !e.burstMark.started || !e.burstMark.stopped {
		return
	}
	// Goodput recovery: the acked-write rate after the burst ends must come
	// back to a healthy fraction of the pre-burst rate — shedding is
	// graceful only if the system actually recovers when the flood stops.
	preWin := e.burstMark.startAt.Sub(e.start)
	recWin := endAt.Sub(e.burstMark.stopAt)
	gres := CheckResult{Name: "final/goodput-recovery"}
	if preWin <= 0 || recWin <= 0 || e.burstMark.startAcked == 0 {
		gres.Detail = "no measurable pre-burst or recovery window"
		e.rep.add(gres)
		return
	}
	preRate := float64(e.burstMark.startAcked) / preWin.Seconds()
	recRate := float64(endAcked-e.burstMark.stopAcked) / recWin.Seconds()
	gres.Pass = recRate >= 0.3*preRate
	gres.Obs = fmt.Sprintf("pre-burst %.0f acked writes/s, post-burst %.0f over %v",
		preRate, recRate, recWin.Round(time.Millisecond))
	if !gres.Pass {
		gres.Obs = ""
		gres.Detail = fmt.Sprintf("post-burst goodput %.0f writes/s never recovered toward the pre-burst %.0f",
			recRate, preRate)
	}
	e.rep.add(gres)
}

// quiesce pauses traffic, waits for convergence, and checks invariants.
func (e *engine) quiesce(ctx context.Context, label string, final bool) {
	e.tracker.Pause()
	defer e.tracker.Resume()

	cctx, cancel := context.WithTimeout(ctx, e.sc.QuiesceTimeout)
	waited := time.Now()
	conv := e.waitConverged(cctx)
	cancel()
	res := CheckResult{
		Name: label + "/converged",
		Pass: conv,
		Obs:  fmt.Sprintf("settled in %v", time.Since(waited).Round(time.Millisecond)),
	}
	if !conv {
		res.Detail = fmt.Sprintf("not converged within %v of fault-free settling", e.sc.QuiesceTimeout)
		res.Obs = ""
	}
	e.rep.add(res)
	if !conv {
		// Downstream checks assume a converged system; report them as
		// failed-by-implication rather than misleading passes.
		e.rep.add(CheckResult{Name: label + "/digest-agreement", Pass: false, Detail: "skipped: not converged"})
		e.rep.add(CheckResult{Name: label + "/monotone-versions", Pass: false, Detail: "skipped: not converged"})
		if final {
			e.rep.add(CheckResult{Name: label + "/durability", Pass: false, Detail: "skipped: not converged"})
		}
		return
	}

	pass, detail := e.digestsAgree()
	e.rep.add(CheckResult{Name: label + "/digest-agreement", Pass: pass, Detail: detail})

	violations := e.monotoneCheck()
	mres := CheckResult{Name: label + "/monotone-versions", Pass: violations == 0}
	if violations > 0 {
		mres.Detail = fmt.Sprintf("%d key versions regressed", violations)
	}
	e.rep.add(mres)

	if final {
		d := e.tracker.checkDurability(e.lookup())
		dres := CheckResult{
			Name: label + "/durability",
			Pass: d.ok(),
			Obs:  fmt.Sprintf("%d keys required and present, %d at-risk-only", d.required, d.atRiskOnly),
		}
		if !d.ok() {
			dres.Detail = fmt.Sprintf("%d acked keys missing, %d converged to never-acked values", d.missing, d.wrongValue)
		}
		e.rep.add(dres)
		if e.sc.Durable && !e.sc.hasLossyEvents() {
			// With real persistence the at-risk classification must stay
			// empty: every acknowledged write was fsynced before its ack,
			// so no crash in the schedule may have cost one. (Schedules
			// with intentionally lossy events — empty-state restarts,
			// reshards — keep their documented at-risk windows and skip
			// this check.)
			_, _, atRisk := e.tracker.counts()
			ares := CheckResult{Name: label + "/no-at-risk", Pass: atRisk == 0}
			if atRisk > 0 {
				ares.Detail = fmt.Sprintf("%d acked writes were classified at-risk despite durability", atRisk)
			}
			e.rep.add(ares)
		}
		if e.sc.Obs != nil {
			// The observability plane's acked-write counter must agree with
			// the tracker's independent count (plus probe writes, which
			// bypass the tracker). Both sides count exactly the successful
			// Cluster.Write acks, so the equality holds under kills,
			// partitions and reshards alike — traffic is paused here, so
			// neither side is moving.
			acked, _, _ := e.tracker.counts()
			obsAcked := int(e.sc.Obs.Total("repro_client_writes_acked_total"))
			want := acked + e.probeWrites
			cres := CheckResult{
				Name: label + "/metrics-consistency",
				Pass: obsAcked == want,
				Obs:  fmt.Sprintf("%d acked writes in /metrics", obsAcked),
			}
			if obsAcked != want {
				cres.Obs = ""
				cres.Detail = fmt.Sprintf("metrics counted %d acked writes, expected %d (%d tracked + %d probes)",
					obsAcked, want, acked, e.probeWrites)
			}
			e.rep.add(cres)
		}
	}
	e.tracker.seal(e.dead)
}

func (e *engine) waitConverged(ctx context.Context) bool {
	if e.router != nil {
		return e.router.WaitConverged(ctx)
	}
	return e.cluster.WaitConverged(ctx)
}

// liveReplica returns one live replica of c, or -1.
func liveReplica(c *runtime.Cluster) NodeID {
	for i := 0; i < c.N(); i++ {
		if c.Alive(NodeID(i)) {
			return NodeID(i)
		}
	}
	return -1
}

// digestsAgree verifies all live replicas of every cluster hold identical
// store digests — content-level agreement beyond summary equality.
func (e *engine) digestsAgree() (bool, string) {
	clusters, _ := e.clustersFor("")
	names := e.clusterNames()
	for ci, c := range clusters {
		var ref uint64
		first := true
		for i := 0; i < c.N(); i++ {
			id := NodeID(i)
			if !c.Alive(id) {
				continue
			}
			d := c.Digest(id)
			if first {
				ref, first = d, false
				continue
			}
			if d != ref {
				return false, fmt.Sprintf("%s: store digests disagree between live replicas", names[ci])
			}
		}
	}
	return true, ""
}

// clusterNames parallels clustersFor("") for diagnostics.
func (e *engine) clusterNames() []string {
	if e.router == nil {
		return []string{"cluster"}
	}
	return e.router.Shards()
}

// monotoneCheck snapshots every live replica's per-key versions and checks
// them against the previous converged checkpoint: versions must never
// regress. Returns the number of regressions found.
func (e *engine) monotoneCheck() int {
	clusters, _ := e.clustersFor("")
	names := e.clusterNames()
	violations := 0
	for ci, c := range clusters {
		shardName := ""
		if e.router != nil {
			shardName = names[ci]
		}
		for i := 0; i < c.N(); i++ {
			id := NodeID(i)
			if !c.Alive(id) {
				continue
			}
			items, err := c.Snapshot(id)
			if err != nil {
				continue
			}
			cur := make(map[string]store.Versioned, len(items))
			for _, it := range items {
				cur[it.Key] = store.Versioned{TS: it.TS, Clock: it.Clock}
			}
			loc := ackLoc{shard: shardName, node: id}
			if prev, ok := e.prevVers[loc]; ok {
				for key, pv := range prev {
					cv, present := cur[key]
					if !present || cv.Older(pv) {
						violations++
					}
				}
			}
			e.prevVers[loc] = cur
		}
	}
	return violations
}

// lookup builds the durability resolver from the converged system: key →
// converged value hash. In router mode each key resolves through its owning
// group.
func (e *engine) lookup() func(key string) (uint64, bool) {
	if e.router == nil {
		m := snapshotHashes(e.cluster)
		return func(key string) (uint64, bool) {
			h, ok := m[key]
			return h, ok
		}
	}
	byShard := make(map[string]map[string]uint64)
	for _, name := range e.router.Shards() {
		if g, ok := e.router.Group(name); ok {
			byShard[name] = snapshotHashes(g.Cluster())
		}
	}
	return func(key string) (uint64, bool) {
		owner, ok := e.router.OwnerOf(key)
		if !ok {
			return 0, false
		}
		h, ok := byShard[owner][key]
		return h, ok
	}
}

// snapshotHashes maps each key to its value hash at one live replica (the
// system is converged, so any live replica is representative).
func snapshotHashes(c *runtime.Cluster) map[string]uint64 {
	id := liveReplica(c)
	if id < 0 {
		return nil
	}
	items, err := c.Snapshot(id)
	if err != nil {
		return nil
	}
	m := make(map[string]uint64, len(items))
	for _, it := range items {
		m[it.Key] = hashBytes(it.Value)
	}
	return m
}

// probe measures the paper's demand-ordering property on the live cluster:
// writes injected at the lowest-demand replica must reach high-demand
// replicas before low-demand ones, on average, under whatever fault
// pressure is currently applied.
func (e *engine) probe(ctx context.Context, label string) CheckResult {
	e.tracker.Pause()
	defer e.tracker.Resume()
	name := label + "/demand-ordering"

	n := e.sc.Nodes
	now := time.Since(e.start).Seconds()
	demands := make([]float64, n)
	origin := NodeID(0)
	for i := 0; i < n; i++ {
		demands[i] = e.mfield.At(NodeID(i), now)
		if demands[i] < demands[origin] {
			origin = NodeID(i)
		}
	}

	totals := make([]time.Duration, n)
	for p := 0; p < e.sc.Probes; p++ {
		key := fmt.Sprintf("chaos.probe.%s.%d", label, p)
		ts, err := e.cluster.Write(origin, key, []byte{byte(p)})
		if err != nil {
			return CheckResult{Name: name, Pass: false, Detail: "probe write failed"}
		}
		e.probeWrites++
		w := e.cluster.Watch(ts)
		select {
		case <-w.Done():
		case <-time.After(e.sc.QuiesceTimeout):
			e.cluster.Unwatch(w)
			return CheckResult{Name: name, Pass: false,
				Detail: fmt.Sprintf("probe write did not propagate within %v", e.sc.QuiesceTimeout)}
		case <-ctx.Done():
			e.cluster.Unwatch(w)
			return CheckResult{Name: name, Pass: false, Detail: "cancelled"}
		}
		for id, d := range w.Times() {
			totals[id] += d
		}
	}

	// Rank non-origin replicas by demand, descending; compare top third
	// against bottom third mean arrival.
	ids := make([]NodeID, 0, n-1)
	for i := 0; i < n; i++ {
		if NodeID(i) != origin {
			ids = append(ids, NodeID(i))
		}
	}
	sort.Slice(ids, func(a, b int) bool { return demands[ids[a]] > demands[ids[b]] })
	k := len(ids) / 3
	if k < 1 {
		k = 1
	}
	mean := func(group []NodeID) time.Duration {
		var sum time.Duration
		for _, id := range group {
			sum += totals[id]
		}
		return sum / time.Duration(len(group)*e.sc.Probes)
	}
	top, bottom := mean(ids[:k]), mean(ids[len(ids)-k:])

	// Slack absorbs scheduler noise: the paper's effect is a large
	// separation, and a true inversion overshoots this bound at once.
	pass := top <= bottom+bottom/4+2*time.Millisecond
	res := CheckResult{
		Name: name,
		Pass: pass,
		Obs: fmt.Sprintf("origin %v, top-third mean %v, bottom-third mean %v",
			origin, top.Round(time.Microsecond), bottom.Round(time.Microsecond)),
	}
	if !pass {
		res.Detail = "high-demand replicas converged slower than low-demand ones"
	}
	return res
}
