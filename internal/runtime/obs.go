package runtime

import (
	"time"

	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wlog"
)

// This file wires the observability plane (internal/obs) into a live
// cluster. Two mechanisms, matching the two kinds of signals:
//
//   - Polled series: everything the cluster already counts (node protocol
//     stats, store read counters, WAL stats, transport queues) is exposed as
//     CounterFunc/GaugeFunc closures evaluated only at scrape time, so an
//     unscraped cluster pays nothing and the lock-free read path stays
//     untouched.
//   - Inline instruments: genuinely new measurements — propagation lag,
//     batch size, commit and fsync latency — are recorded on the hot path
//     with the allocation-free striped instruments (see groupcommit.go and
//     propObserver below).

// WithObs attaches an observability bundle: the cluster feeds co's
// propagation tracer and commit instruments inline and registers polled
// series for its protocol, store, WAL and transport counters. Build co with
// obs.NewClusterObs over the same replica count.
func WithObs(co *obs.ClusterObs) Option {
	return func(o *options) { o.obs = co }
}

// nodeObserver returns the node.Observer for replica id: the propagation
// tracer hook when observability is on, nil otherwise.
func nodeObserver(o *options, id NodeID) node.Observer {
	if o.obs == nil {
		return nil
	}
	return propObserver{co: o.obs, id: id}
}

// propObserver adapts the propagation tracer to the node's Observer hook.
// Committed entries are stamped at their origin (this runs under the
// replica lock inside the group commit, before any fan-out can deliver the
// write elsewhere); absorbed entries record origin→here visibility lag.
// Both paths read the tracer clock once per batch.
type propObserver struct {
	co *obs.ClusterObs
	id NodeID
}

// ObserveCommitted stamps each committed write at its origin.
func (p propObserver) ObserveCommitted(entries []wlog.Entry) {
	now := p.co.Prop.Now()
	for _, e := range entries {
		p.co.Prop.Stamp(e.TS.Node, e.TS.Seq, now)
	}
}

// ObserveAbsorbed records propagation lag for each newly absorbed write.
func (p propObserver) ObserveAbsorbed(entries []wlog.Entry) {
	now := p.co.Prop.Now()
	for _, e := range entries {
		p.co.Prop.Observe(e.TS.Node, p.id, e.TS.Seq, now)
	}
}

// depth returns the number of parked client writes (scrape-time only).
func (q *writeQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// registerObs registers the cluster's polled metric series. Called once at
// construction when WithObs is set; registration is idempotent, so a driver
// that rebuilds clusters on a shared registry re-attaches cleanly. The
// closures lock briefly per scrape — never on any client or protocol path.
func (c *Cluster) registerObs() {
	co := c.opts.obs
	if co == nil {
		return
	}
	reg := co.Reg
	reg.GaugeFunc("repro_replicas",
		"Replicas configured in the cluster.",
		func() float64 { return float64(len(c.replicas)) }, co.Labels...)
	reg.GaugeFunc("repro_uptime_seconds",
		"Seconds since the cluster started (0 before Start).",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			if !c.started {
				return 0
			}
			return time.Since(c.start).Seconds()
		}, co.Labels...)
	reg.GaugeFunc("repro_goodput_writes_per_second",
		"Exponentially decayed rate of client writes acknowledged cluster-wide (1s window) — goodput, excluding shed and failed writes.",
		func() float64 { return c.goodput.Rate(time.Now()) }, co.Labels...)
	c.registerTransportObs()
	for i := range c.replicas {
		c.registerReplicaObs(NodeID(i))
	}
}

// registerReplicaObs registers replica id's polled series, labelled
// replica="nX" on top of the cluster's base labels.
func (c *Cluster) registerReplicaObs(id NodeID) {
	co := c.opts.obs
	reg := co.Reg
	r := c.replicas[id]
	lbl := co.With(obs.L("replica", id.String()))

	// stat polls one node.Stats field under the replica lock.
	stat := func(sel func(node.Stats) uint64) func() float64 {
		return func() float64 {
			r.mu.Lock()
			s := r.node.Stats()
			r.mu.Unlock()
			return float64(sel(s))
		}
	}
	counter := func(name, help string, sel func(node.Stats) uint64, extra ...obs.Label) {
		all := append(append([]obs.Label(nil), lbl...), extra...)
		reg.CounterFunc(name, help, stat(sel), all...)
	}

	counter("repro_node_client_writes_total",
		"Local client writes committed at the replica.",
		func(s node.Stats) uint64 { return s.ClientWrites })
	counter("repro_node_entries_absorbed_total",
		"Write-log entries gained from peers (anti-entropy and fast push).",
		func(s node.Stats) uint64 { return s.EntriesAbsorbed })
	counter("repro_node_duplicate_drops_total",
		"Received entries dropped as already-covered re-deliveries.",
		func(s node.Stats) uint64 { return s.DuplicateDrops })
	counter("repro_node_gap_drops_total",
		"Received entries dropped for arriving out of sequence order.",
		func(s node.Stats) uint64 { return s.GapDrops })
	const sessionsHelp = "Anti-entropy sessions by role; advert counts the pulls a neighbour's advertised summary drew."
	counter("repro_node_sessions_total", sessionsHelp,
		func(s node.Stats) uint64 { return s.SessionsInitiated }, obs.L("role", "initiator"))
	counter("repro_node_sessions_total", sessionsHelp,
		func(s node.Stats) uint64 { return s.SessionsReceived }, obs.L("role", "responder"))
	counter("repro_node_sessions_total", sessionsHelp,
		func(s node.Stats) uint64 { return s.AdvertPulls }, obs.L("role", "advert"))
	counter("repro_node_entries_total",
		"Write-log entries exchanged in anti-entropy sessions, by direction.",
		func(s node.Stats) uint64 { return s.EntriesSent }, obs.L("dir", "sent"))
	counter("repro_node_entries_total",
		"Write-log entries exchanged in anti-entropy sessions, by direction.",
		func(s node.Stats) uint64 { return s.EntriesReceived }, obs.L("dir", "received"))
	counter("repro_node_fast_offers_total",
		"Fast-update offers by lifecycle event.",
		func(s node.Stats) uint64 { return s.FastOffersSent }, obs.L("event", "sent"))
	counter("repro_node_fast_offers_total",
		"Fast-update offers by lifecycle event.",
		func(s node.Stats) uint64 { return s.FastPushesSent }, obs.L("event", "pushed"))
	counter("repro_node_fast_offers_total",
		"Fast-update offers by lifecycle event.",
		func(s node.Stats) uint64 { return s.FastOffersReceived }, obs.L("event", "received"))
	counter("repro_node_fast_offers_total",
		"Fast-update offers by lifecycle event.",
		func(s node.Stats) uint64 { return s.FastOffersAccepted }, obs.L("event", "accepted"))
	counter("repro_node_fast_offers_total",
		"Fast-update offers by lifecycle event.",
		func(s node.Stats) uint64 { return s.FastOffersDeclined }, obs.L("event", "declined"))
	counter("repro_node_fast_entries_total",
		"Write-log entries moved by fast-update chains, by direction.",
		func(s node.Stats) uint64 { return s.FastEntriesSent }, obs.L("dir", "sent"))
	counter("repro_node_fast_entries_total",
		"Write-log entries moved by fast-update chains, by direction.",
		func(s node.Stats) uint64 { return s.FastEntriesGained }, obs.L("dir", "gained"))
	counter("repro_node_adverts_total",
		"Demand advertisements sent.",
		func(s node.Stats) uint64 { return s.AdvertsSent })
	counter("repro_node_messages_total",
		"Protocol envelopes handled.",
		func(s node.Stats) uint64 { return s.MessagesHandled })
	counter("repro_node_snapshots_total",
		"Full-state transfers (truncation recovery), by direction.",
		func(s node.Stats) uint64 { return s.SnapshotsSent }, obs.L("dir", "sent"))
	counter("repro_node_snapshots_total",
		"Full-state transfers (truncation recovery), by direction.",
		func(s node.Stats) uint64 { return s.SnapshotsReceived }, obs.L("dir", "received"))

	// Store series poll through the lock-free published pointer (nil while
	// the replica is dead, fresh after an empty-state restart — counters may
	// reset, which scrapers handle).
	reg.GaugeFunc("repro_store_keys",
		"Keys in the replica's content store.",
		func() float64 {
			if st := r.store.Load(); st != nil {
				return float64(st.Len())
			}
			return 0
		}, lbl...)
	reg.CounterFunc("repro_store_reads_total",
		"Client reads served by the store.",
		func() float64 {
			if st := r.store.Load(); st != nil {
				reads, _ := st.ReadStats()
				return float64(reads)
			}
			return 0
		}, lbl...)
	reg.CounterFunc("repro_store_stale_reads_total",
		"Store reads that returned a value older than the newest applied write.",
		func() float64 {
			if st := r.store.Load(); st != nil {
				_, stale := st.ReadStats()
				return float64(stale)
			}
			return 0
		}, lbl...)
	reg.GaugeFunc("repro_replica_up",
		"1 while the replica serves client operations, 0 while down.",
		func() float64 {
			if r.store.Load() != nil {
				return 1
			}
			return 0
		}, lbl...)
	reg.GaugeFunc("repro_demand",
		"The replica's own demand (configured field or measured rate).",
		func() float64 {
			now := c.now()
			r.mu.Lock()
			defer r.mu.Unlock()
			if r.dead {
				return 0
			}
			return r.node.OwnDemand(now)
		}, lbl...)
	reg.GaugeFunc("repro_summary_writes",
		"Total writes the replica's summary vector covers.",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(r.node.SummaryTotal())
		}, lbl...)
	reg.GaugeFunc("repro_commit_queue_depth",
		"Client writes parked in the group-commit combining queue.",
		func() float64 { return float64(r.wq.depth()) }, lbl...)
	reg.GaugeFunc("repro_replica_overloaded",
		"1 while the replica's admission controller is shedding on sustained queue sojourn.",
		func() float64 {
			if r.adm.overloaded.Load() {
				return 1
			}
			return 0
		}, lbl...)

	if c.opts.durDir != "" {
		c.registerWALObs(r, lbl)
	}
}

// registerTransportObs registers the cluster-level TCP transport series:
// sums over every endpoint backed by a real TCP transport. The families are
// registered even for memory-backed clusters (reporting zeros), so scrape
// consumers see a stable schema regardless of transport.
func (c *Cluster) registerTransportObs() {
	co := c.opts.obs
	reg := co.Reg
	// eachTCP folds f over the live TCP endpoints (endpoint pointers swap on
	// restart, so each poll re-reads them under the replica locks).
	eachTCP := func(f func(t *transport.TCP) float64) func() float64 {
		return func() float64 {
			var total float64
			for _, r := range c.replicas {
				r.mu.Lock()
				ep := r.ep
				r.mu.Unlock()
				if t, ok := ep.(*transport.TCP); ok {
					total += f(t)
				}
			}
			return total
		}
	}
	reg.GaugeFunc("repro_tcp_send_queue_depth",
		"Envelopes parked in TCP per-peer send queues, cluster-wide (0 on the in-memory transport).",
		eachTCP(func(t *transport.TCP) float64 { return float64(t.QueueDepth()) }), co.Labels...)
	reg.CounterFunc("repro_tcp_sends_total",
		"Envelopes accepted into TCP send queues, cluster-wide.",
		eachTCP(func(t *transport.TCP) float64 { return float64(t.Sends()) }), co.Labels...)
	reg.CounterFunc("repro_tcp_flushes_total",
		"Coalesced TCP writer flushes, cluster-wide.",
		eachTCP(func(t *transport.TCP) float64 { return float64(t.Flushes()) }), co.Labels...)
	reg.CounterFunc("repro_tcp_stall_drops_total",
		"Envelopes dropped after a full TCP send queue stalled past its timeout, cluster-wide.",
		eachTCP(func(t *transport.TCP) float64 { return float64(t.StallDrops()) }), co.Labels...)
}

// registerWALObs registers replica-level durable persistence series. The
// WAL pointer swaps on restart and is nil after Kill/Abandon, so each poll
// re-reads it under the replica lock.
func (c *Cluster) registerWALObs(r *replica, lbl []obs.Label) {
	reg := c.opts.obs.Reg
	walStats := func() (st struct {
		Segments        int
		DiskBytes       int64
		Records         uint64
		DurableRecords  uint64
		SnapshotRecords uint64
		Syncs           uint64
		PipelineSyncs   uint64
		SnapshotBytes   int64
		DirSyncErrs     uint64
		LastSync        time.Duration
	}, ok bool) {
		r.mu.Lock()
		w := r.wal
		r.mu.Unlock()
		if w == nil {
			return st, false
		}
		s := w.Stats()
		st.Segments = s.Segments
		st.DiskBytes = s.DiskBytes
		st.Records = s.Records
		st.DurableRecords = s.DurableRecords
		st.SnapshotRecords = s.SnapshotRecords
		st.Syncs = s.Syncs
		st.PipelineSyncs = s.PipelineSyncs
		st.SnapshotBytes = s.SnapshotBytes
		st.DirSyncErrs = s.DirSyncErrs
		st.LastSync = s.LastSync
		return st, true
	}
	reg.GaugeFunc("repro_wal_segments",
		"On-disk WAL segments.",
		func() float64 { st, _ := walStats(); return float64(st.Segments) }, lbl...)
	reg.GaugeFunc("repro_wal_disk_bytes",
		"Bytes the WAL holds on disk across segments.",
		func() float64 { st, _ := walStats(); return float64(st.DiskBytes) }, lbl...)
	reg.CounterFunc("repro_wal_records_total",
		"Records appended to the WAL this incarnation.",
		func() float64 { st, _ := walStats(); return float64(st.Records) }, lbl...)
	reg.GaugeFunc("repro_wal_durable_records",
		"WAL durability watermark: records covered by a completed sync.",
		func() float64 { st, _ := walStats(); return float64(st.DurableRecords) }, lbl...)
	reg.CounterFunc("repro_wal_pipeline_syncs_total",
		"Syncs retired by the WAL's background sync stage this incarnation.",
		func() float64 { st, _ := walStats(); return float64(st.PipelineSyncs) }, lbl...)
	reg.GaugeFunc("repro_commit_inflight_batches",
		"Committed batches and held envelope sets whose covering sync has not yet released them.",
		func() float64 { return float64(r.ackq.depth()) }, lbl...)
	reg.CounterFunc("repro_egress_dropped_total",
		"Entry-carrying envelope sets dropped because the release stage already held its cap behind a slow disk.",
		func() float64 { return float64(r.ackq.dropped.Load()) }, lbl...)
	reg.GaugeFunc("repro_wal_snapshot_records",
		"Records covered by the newest on-disk snapshot.",
		func() float64 { st, _ := walStats(); return float64(st.SnapshotRecords) }, lbl...)
	reg.CounterFunc("repro_wal_syncs_total",
		"WAL fsync batches this incarnation.",
		func() float64 { st, _ := walStats(); return float64(st.Syncs) }, lbl...)
	reg.CounterFunc("repro_wal_snapshot_bytes_total",
		"Bytes written as WAL snapshot images this incarnation.",
		func() float64 { st, _ := walStats(); return float64(st.SnapshotBytes) }, lbl...)
	reg.CounterFunc("repro_wal_dir_sync_errors_total",
		"WAL directory-fsync failures on platforms that support directory fsync.",
		func() float64 { st, _ := walStats(); return float64(st.DirSyncErrs) }, lbl...)
	reg.GaugeFunc("repro_wal_sync_stall_seconds",
		"Duration of the replica's most recent disk-reaching WAL fsync — the stall signal of a degrading disk.",
		func() float64 { st, _ := walStats(); return st.LastSync.Seconds() }, lbl...)
	// Pre-register the fail-stop family so /metrics shows the zero series
	// before (ideally: instead of) any replica actually dying.
	for _, reason := range []string{"io-error", "disk-full"} {
		reg.Counter("repro_replica_failstop_total", failStopHelp,
			append(append([]obs.Label(nil), lbl...), obs.L("reason", reason))...)
	}
}
