// Package chaos is a seeded, deterministic fault-schedule engine for live
// clusters. It composes the repository's fault primitives — transport
// partitions/loss/latency (transport.Faults), replica crash/restart with and
// without state loss (runtime.Cluster), SIGKILL-style crashes with recovery
// from on-disk WALs (durable scenarios, runtime.RestartFromDisk), injected
// storage faults on those WALs (vfs.FaultFS: slow, dying and full disks,
// power cuts that evaporate unsynced bytes), live shard add/remove
// (shard.Router), and demand-field flips (demand.Mutable)
// — into scripted adversarial scenarios, applies background client traffic
// while the schedule runs, and checks invariants at quiesce points:
//
//  1. durability — every acknowledged write survives and converges after
//     faults heal (writes whose only copy died with a crashed replica are
//     classified at-risk, not required; see tracker.go — on durable
//     scenarios without deliberately lossy events the at-risk set must
//     additionally be empty, because acks imply fsync),
//  2. monotonicity — store versions never regress per key per replica
//     across converged checkpoints,
//  3. convergence — Converged holds after fault-free settling, with all
//     live store digests equal,
//  4. demand ordering — the paper's property: high-demand replicas reach
//     consistency before low-demand ones under identical fault pressure,
//  5. session guarantees — on session-armed scenarios (Scenario.Sessions)
//     client sessions keep read-your-writes and monotonic reads through
//     every fault, shedding visibly (not-fresh) rather than serving stale.
//
// # Seed reproducibility
//
// A Scenario's event schedule is pure data, and every built-in or randomly
// generated schedule is a deterministic function of (name, seed, scale) or
// (seed, GenConfig) alone. Running the same scenario with the same seed
// twice produces byte-identical Schedule() and — whenever the invariants
// hold, which they must — byte-identical Verdict() output. Wall-clock
// measurements (propagation times, op counts) are intentionally excluded
// from the verdict and reported separately via Observations(). To replay a
// CI failure locally, copy the seed from the logged schedule header and run
//
//	go run ./cmd/chaoscheck -scenario <name> -seed <seed>
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/demand"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/topology"
	"repro/internal/vclock"
	"repro/internal/wal"
	"repro/internal/workload"
)

// NodeID aliases the replica identifier.
type NodeID = vclock.NodeID

// EventKind enumerates the fault and checkpoint actions a schedule can take.
type EventKind int

const (
	// EvPartition severs every link between Nodes and Peers in the target
	// network (split-brain).
	EvPartition EventKind = iota
	// EvHeal restores every severed link in the target network.
	EvHeal
	// EvKill crashes the replicas in Nodes.
	EvKill
	// EvRestart restarts crashed replicas with empty state (state loss):
	// recovery happens through anti-entropy.
	EvRestart
	// EvRestartPreserve restarts crashed replicas with their protocol state
	// intact, as if recovering from durable storage.
	EvRestartPreserve
	// EvRestartDisk restarts crashed replicas from their on-disk WAL and
	// snapshot (durable scenarios only): acknowledged writes survive the
	// crash for real, so the durability invariant holds with nothing
	// reclassified at-risk.
	EvRestartDisk
	// EvSetLoss sets the per-message drop probability to Rate.
	EvSetLoss
	// EvSetLatency sets base delivery latency and jitter.
	EvSetLatency
	// EvDemandFlip inverts the demand field: hottest replicas become
	// coldest and vice versa (single-cluster scenarios only).
	EvDemandFlip
	// EvAddShard grows a sharded keyspace by one group named Shard
	// (router scenarios only).
	EvAddShard
	// EvRemoveShard shrinks a sharded keyspace, handing the named group's
	// keys off (router scenarios only).
	EvRemoveShard
	// EvQuiesce pauses traffic, waits for convergence, and checks the
	// convergence, digest-agreement and monotonicity invariants.
	EvQuiesce
	// EvProbe measures the paper's demand-ordering property: probe writes
	// are injected at the lowest-demand replica and per-replica arrival
	// times are compared across demand ranks (single-cluster only).
	EvProbe
	// EvDiskSlow stalls every fsync on the targeted replicas' WAL disks
	// (empty Nodes = the whole cluster): each sync takes Latency, growing by
	// Ramp per sync up to the Jitter cap. The degradation policy demands
	// slower acks, not fail-stops. Durable single-cluster scenarios only.
	EvDiskSlow
	// EvDiskDie makes the targeted replicas' WAL disks return I/O errors —
	// permanently, or on the next Count syncs when Count > 0. Either way the
	// first failed sync fail-stops the replica (sync errors are sticky:
	// durability is in doubt). Durable single-cluster scenarios only.
	EvDiskDie
	// EvDiskFull exhausts the targeted replicas' WAL disks after Budget more
	// bytes: the write that crosses the budget is torn at the boundary and
	// returns ENOSPC, fail-stopping the replica. Durable single-cluster
	// scenarios only.
	EvDiskFull
	// EvDiskHeal clears every injected disk fault on the targeted replicas
	// (empty Nodes = everywhere) — the disk is replaced or space is freed.
	EvDiskHeal
	// EvPowerCut kills the replicas in Nodes AND drops an injector-chosen
	// suffix of each one's unsynced WAL bytes, possibly mid-record — a crash
	// where the page cache never reached the platter. Revive with
	// EvRestartDisk; acked (= synced) writes must all survive.
	EvPowerCut
	// EvBurst switches the background traffic to the scenario's Burst
	// workload (typically open-loop at a rate far past capacity — a flash
	// crowd), interrupting the in-flight normal round so the flood starts
	// promptly. Requires Scenario.Burst. Not a lossy event: shed writes are
	// rejected before any ack, so the durability invariants stay armed.
	EvBurst
	// EvBurstStop returns the background traffic to the normal Load and
	// marks the start of the recovery window the goodput-recovery gate
	// measures.
	EvBurstStop
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EvPartition:
		return "partition"
	case EvHeal:
		return "heal-all"
	case EvKill:
		return "kill"
	case EvRestart:
		return "restart"
	case EvRestartPreserve:
		return "restart-preserve"
	case EvRestartDisk:
		return "restart-disk"
	case EvSetLoss:
		return "set-loss"
	case EvSetLatency:
		return "set-latency"
	case EvDemandFlip:
		return "demand-flip"
	case EvAddShard:
		return "add-shard"
	case EvRemoveShard:
		return "remove-shard"
	case EvQuiesce:
		return "quiesce"
	case EvProbe:
		return "probe"
	case EvDiskSlow:
		return "disk-slow"
	case EvDiskDie:
		return "disk-die"
	case EvDiskFull:
		return "disk-full"
	case EvDiskHeal:
		return "disk-heal"
	case EvPowerCut:
		return "power-cut"
	case EvBurst:
		return "burst"
	case EvBurstStop:
		return "burst-stop"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one scheduled action. At is the offset from scenario start; if
// the preceding event overran (a quiesce waiting for convergence), the
// event fires immediately after it.
type Event struct {
	At      time.Duration
	Kind    EventKind
	Shard   string        // target group for node-level events in router scenarios; spec name for add/remove
	Nodes   []NodeID      // kill/restart/disk-fault targets, or partition side A
	Peers   []NodeID      // partition side B
	Rate    float64       // loss probability for EvSetLoss
	Latency time.Duration // base delay for EvSetLatency; base fsync stall for EvDiskSlow
	Jitter  time.Duration // jitter bound for EvSetLatency; fsync stall cap for EvDiskSlow
	Ramp    time.Duration // per-sync stall growth for EvDiskSlow
	Count   int           // EvDiskDie: fail the next Count syncs (0 = permanently)
	Budget  int64         // EvDiskFull: bytes accepted before ENOSPC
}

// String renders the event deterministically (schedule contract).
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "+%-8v %s", e.At, e.Kind)
	if e.Shard != "" {
		fmt.Fprintf(&b, " %s", e.Shard)
	}
	switch e.Kind {
	case EvPartition:
		fmt.Fprintf(&b, " %v | %v", e.Nodes, e.Peers)
	case EvKill, EvRestart, EvRestartPreserve, EvRestartDisk:
		fmt.Fprintf(&b, " %v", e.Nodes)
	case EvSetLoss:
		fmt.Fprintf(&b, " %g", e.Rate)
	case EvSetLatency:
		fmt.Fprintf(&b, " %v jitter %v", e.Latency, e.Jitter)
	case EvDiskSlow:
		fmt.Fprintf(&b, " %v ramp %v cap %v %s", e.Latency, e.Ramp, e.Jitter, diskTargets(e.Nodes))
	case EvDiskDie:
		if e.Count > 0 {
			fmt.Fprintf(&b, " next %d %v", e.Count, e.Nodes)
		} else {
			fmt.Fprintf(&b, " permanent %v", e.Nodes)
		}
	case EvDiskFull:
		fmt.Fprintf(&b, " budget %d %v", e.Budget, e.Nodes)
	case EvDiskHeal:
		fmt.Fprintf(&b, " %s", diskTargets(e.Nodes))
	case EvPowerCut:
		fmt.Fprintf(&b, " %v", e.Nodes)
	}
	return b.String()
}

// diskTargets renders a disk-fault target list, where empty means the whole
// cluster.
func diskTargets(nodes []NodeID) string {
	if len(nodes) == 0 {
		return "all"
	}
	return fmt.Sprintf("%v", nodes)
}

// Scenario is one reproducible chaos run: a system shape, a fault schedule,
// and the workload that runs underneath it.
type Scenario struct {
	// Name labels the scenario in schedules and verdicts.
	Name string
	// Description says what the scenario stresses.
	Description string
	// Seed drives every RNG involved — replica session timing, network
	// loss/jitter, workload key choice, and random schedule generation.
	Seed int64
	// Nodes is the replica count (per shard group when Shards > 1).
	Nodes int
	// Shards > 1 runs the schedule against a shard.Router with that many
	// groups; otherwise a single runtime.Cluster.
	Shards int
	// Topology picks the replica graph: "ring" (default), "complete", or
	// "ba" (Barabási–Albert).
	Topology string
	// Durable runs the system with the durable persistence plane on
	// (runtime.WithDurability per cluster): client writes are fsynced
	// before their ack, EvKill becomes a SIGKILL-style crash that loses
	// only unsynced state, and EvRestartDisk recovers replicas from disk.
	// The durability invariant then demands zero at-risk writes at the
	// final check. Durable affects execution only; the schedule stays a
	// pure function of (name, seed, scale).
	Durable bool
	// DataDir roots the durable replicas' WALs; empty means a fresh
	// temporary directory per run, removed afterwards. Only meaningful
	// with Durable.
	DataDir string
	// Field fixes the per-replica demand (indexed by local id, applied to
	// every group); nil draws Uniform(1,101) demands from Seed.
	Field demand.Static
	// Events is the fault schedule, ordered by At.
	Events []Event
	// Load configures the background traffic. Seed is overridden with the
	// scenario seed. ReadFraction 0 (unset) selects a balanced 0.5 mix so
	// durability sees plenty of writes; request an all-write mix with a
	// negative value (clamped to 0 before the workload runs).
	Load workload.Config
	// SessionInterval and AdvertInterval tune the protocol (defaults 15ms
	// and 5ms — fast convergence keeps scenarios short). Adverts carry the
	// summary vector (≈ 2–3 B per origin on a byte-charging link), so theirs
	// also bounds how long a replica a frame or less behind and off every
	// fast-update chain waits.
	SessionInterval time.Duration
	AdvertInterval  time.Duration
	// QuiesceTimeout bounds each convergence wait and probe (default 30s).
	QuiesceTimeout time.Duration
	// Probes is the number of probe writes per EvProbe (default 8).
	Probes int
	// Obs, when non-nil, wires the observability plane into the system
	// under test (runtime.WithObs per cluster, shard.Config.Obs in router
	// mode) and adds a metrics-consistency check at the final quiesce: the
	// acked-write counter scraped from the registry must equal the
	// tracker's independent count. Like Durable it affects execution only —
	// the schedule stays a pure function of (name, seed, scale).
	Obs *obs.Registry
	// WALTuning, when non-nil, overrides the durable replicas' WAL
	// configuration (runtime.WithDurabilityTuning) — scenarios use it to
	// stress the pipelined sync stage under specific knobs, e.g. an fsync
	// coalescing window that keeps more batches in flight when power is
	// cut. It replaces the runtime's defaults wholesale. Execution-only,
	// like Durable and Obs; only meaningful on durable single-cluster
	// scenarios.
	WALTuning *wal.Options
	// Admission, when non-nil, arms the replicas' admission plane
	// (runtime.WithAdmission per cluster) and adds the overload gates at
	// the final check: shedding visibly engaged, combining-queue sojourn
	// p99 bounded, and goodput recovered after the burst. The engine wires
	// an observability registry automatically (the gates scrape it) when
	// Obs is nil. Execution-only, like Durable and Obs.
	Admission *runtime.AdmissionConfig
	// Burst is the workload EvBurst switches the background traffic to —
	// typically open-loop at a rate far past capacity. Unset fields default
	// to a 256-worker all-write open-loop flood over the Load keyspace.
	// Execution-only; EvBurst events require it.
	Burst *workload.Config
	// Sessions arms the session-guarantee oracle: every workload worker
	// drives its traffic through a real client session at a mixed
	// consistency-level read mix (Load's session fractions default to
	// 25/10/5 percent session/bounded/strong when all are unset), and each
	// successful session- or strong-level read is checked op-by-op for
	// read-your-writes and monotonic reads against the session's floor. The
	// final check then gates on zero violations (freshness sheds are not
	// violations — they ARE the contract under faults). Session-armed
	// schedules must not contain EvRestart: empty-state restarts
	// deliberately lose acked session state. Execution-only, like Durable.
	Sessions bool
}

func (s Scenario) withDefaults() Scenario {
	if s.Name == "" {
		s.Name = "unnamed"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Nodes <= 0 {
		s.Nodes = 8
	}
	if s.Shards <= 0 {
		s.Shards = 1
	}
	if s.Topology == "" {
		s.Topology = "ring"
	}
	if s.SessionInterval <= 0 {
		s.SessionInterval = 15 * time.Millisecond
	}
	if s.AdvertInterval <= 0 {
		s.AdvertInterval = 5 * time.Millisecond
	}
	if s.QuiesceTimeout <= 0 {
		s.QuiesceTimeout = 30 * time.Second
	}
	if s.Probes <= 0 {
		s.Probes = 8
	}
	if s.Load.Workers <= 0 {
		s.Load.Workers = 6
	}
	if s.Load.Ops <= 0 {
		s.Load.Ops = 4000 // per background round; rounds repeat until the run ends
	}
	if s.Load.Keys <= 0 {
		s.Load.Keys = 256
	}
	switch {
	case s.Load.ReadFraction == 0:
		s.Load.ReadFraction = 0.5 // balanced mix: durability needs writes
	case s.Load.ReadFraction < 0:
		s.Load.ReadFraction = 0 // explicit all-write request
	case s.Load.ReadFraction > 1:
		s.Load.ReadFraction = 1
	}
	if s.Load.ValueBytes <= 0 {
		s.Load.ValueBytes = 32
	}
	if s.Sessions && s.Load.SessionReads == 0 && s.Load.BoundedReads == 0 && s.Load.StrongReads == 0 {
		s.Load.SessionReads, s.Load.BoundedReads, s.Load.StrongReads = 0.25, 0.10, 0.05
	}
	s.Load.Seed = s.Seed
	if s.Burst != nil {
		b := *s.Burst
		if b.Workers <= 0 {
			b.Workers = 256
		}
		if b.Ops <= 0 {
			b.Ops = 8000
		}
		if b.Keys <= 0 {
			b.Keys = s.Load.Keys
		}
		switch {
		case b.ReadFraction < 0:
			b.ReadFraction = 0 // explicit all-write request, like Load
		case b.ReadFraction > 1:
			b.ReadFraction = 1
		}
		if b.ValueBytes <= 0 {
			b.ValueBytes = s.Load.ValueBytes
		}
		if b.ArrivalRate <= 0 {
			b.ArrivalRate = 50000
		}
		// A distinct seed keeps the burst's key stream decorrelated from the
		// normal load's without touching the scenario's reproducibility.
		b.Seed = s.Seed ^ 0x9e3779b9
		s.Burst = &b
	}
	return s
}

// Validate checks the schedule against the system shape.
func (s Scenario) Validate() error {
	if s.Nodes < 2 {
		return fmt.Errorf("chaos: need at least 2 replicas, have %d", s.Nodes)
	}
	switch s.Topology {
	case "ring", "complete", "ba":
	default:
		return fmt.Errorf("chaos: unknown topology %q", s.Topology)
	}
	if s.Field != nil && len(s.Field) != s.Nodes {
		return fmt.Errorf("chaos: demand field has %d entries for %d nodes", len(s.Field), s.Nodes)
	}
	sharded := s.Shards > 1
	var prev time.Duration
	for i, e := range s.Events {
		if e.At < prev {
			return fmt.Errorf("chaos: event %d (%v) out of order", i, e)
		}
		prev = e.At
		switch e.Kind {
		case EvPartition:
			if len(e.Nodes) == 0 || len(e.Peers) == 0 {
				return fmt.Errorf("chaos: event %d: partition needs two non-empty sides", i)
			}
		case EvKill, EvRestart, EvRestartPreserve, EvRestartDisk:
			if len(e.Nodes) == 0 {
				return fmt.Errorf("chaos: event %d: %v needs targets", i, e.Kind)
			}
			if sharded && e.Shard == "" {
				return fmt.Errorf("chaos: event %d: %v needs a target shard in a sharded scenario", i, e.Kind)
			}
			if e.Kind == EvRestartDisk && !s.Durable {
				return fmt.Errorf("chaos: event %d: %v needs a durable scenario", i, e.Kind)
			}
			if e.Kind == EvRestart && s.Sessions {
				return fmt.Errorf("chaos: event %d: empty-state restart in a session-armed scenario (it deliberately loses acked session state)", i)
			}
		case EvSetLoss:
			if e.Rate < 0 || e.Rate >= 1 {
				return fmt.Errorf("chaos: event %d: loss rate %g outside [0,1)", i, e.Rate)
			}
		case EvDemandFlip, EvProbe:
			if sharded {
				return fmt.Errorf("chaos: event %d: %v is single-cluster only", i, e.Kind)
			}
		case EvDiskSlow, EvDiskDie, EvDiskFull, EvDiskHeal, EvPowerCut:
			if !s.Durable {
				return fmt.Errorf("chaos: event %d: %v needs a durable scenario", i, e.Kind)
			}
			if sharded {
				return fmt.Errorf("chaos: event %d: %v is single-cluster only", i, e.Kind)
			}
			switch e.Kind {
			case EvDiskDie, EvDiskFull, EvPowerCut:
				if len(e.Nodes) == 0 {
					return fmt.Errorf("chaos: event %d: %v needs targets", i, e.Kind)
				}
			}
			if e.Kind == EvDiskFull && e.Budget < 0 {
				return fmt.Errorf("chaos: event %d: disk-full budget %d is negative", i, e.Budget)
			}
		case EvAddShard, EvRemoveShard:
			if !sharded {
				return fmt.Errorf("chaos: event %d: %v needs a sharded scenario", i, e.Kind)
			}
			if e.Shard == "" {
				return fmt.Errorf("chaos: event %d: %v needs a shard name", i, e.Kind)
			}
		case EvBurst, EvBurstStop:
			if s.Burst == nil {
				return fmt.Errorf("chaos: event %d: %v needs Scenario.Burst", i, e.Kind)
			}
		}
		if e.Shard != "" && !sharded {
			switch e.Kind {
			case EvAddShard, EvRemoveShard:
			default:
				return fmt.Errorf("chaos: event %d targets shard %q in a single-cluster scenario", i, e.Shard)
			}
		}
		for _, id := range append(append([]NodeID(nil), e.Nodes...), e.Peers...) {
			if int(id) < 0 || int(id) >= s.Nodes {
				return fmt.Errorf("chaos: event %d targets replica %v outside [0,%d)", i, id, s.Nodes)
			}
		}
	}
	return nil
}

// hasLossyEvents reports whether the schedule contains events that are
// *documented* to put acknowledged writes at risk even under durability:
// empty-state restarts (deliberate state loss) and reshards (the handoff
// window is non-linearizable against racing writes).
func (s Scenario) hasLossyEvents() bool {
	for _, e := range s.Events {
		switch e.Kind {
		case EvRestart, EvAddShard, EvRemoveShard:
			return true
		}
	}
	return false
}

// Schedule renders the full event schedule. The output is a deterministic
// function of the scenario value — the reproducibility contract.
func (s Scenario) Schedule() string {
	s = s.withDefaults()
	var b strings.Builder
	durable := ""
	if s.Durable {
		durable = " durable=true"
	}
	fmt.Fprintf(&b, "scenario %s seed=%d nodes=%d shards=%d topo=%s%s events=%d\n",
		s.Name, s.Seed, s.Nodes, s.Shards, s.Topology, durable, len(s.Events))
	for i, e := range s.Events {
		fmt.Fprintf(&b, "  %2d %s\n", i, e)
	}
	return b.String()
}

// buildGraph constructs the scenario's replica topology. Shapes that need
// more replicas than the scenario has fall back to the complete graph
// (identical for n <= 3 anyway).
func buildGraph(topo string, n int, rng *rand.Rand) *topology.Graph {
	switch {
	case topo == "ba" && n >= 3:
		return topology.BarabasiAlbert(n, 2, rng)
	case topo == "ring" && n >= 3:
		return topology.Ring(n)
	default:
		return topology.Complete(n)
	}
}

// sortEvents orders a generated schedule by offset, keeping generation
// order for ties.
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
}
