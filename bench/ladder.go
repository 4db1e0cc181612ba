package main

// layerMetric describes one rung of the per-layer ladder: which layer it
// belongs to and which end-to-end metric, on which workload, it is
// predicted to move. The predictions were written down before measuring.
// BENCHMARK.json's per_layer entries may hold a name, a unit and a direction
// only, so layer and prediction travel with every value in the traced run's
// result document instead.
type layerMetric struct {
	name, unit, better string
	layer              string
	moves              string
}

// perLayerSpecs is the ladder, in ARCHITECTURE.md's layer order. A
// workload that does not exercise a layer reports that layer's counters
// as 0 (no disk on read_mostly, no schedule on a closed loop); the probes
// read the same on every workload.
var perLayerSpecs = []layerMetric{
	{"harness.gen_late_p99_us", "us", "lower", "harness", "validity of write_* on durable_write and lag_* on propagation; never a claim"},
	{"harness.peak_inflight", "count", "lower", "harness", "validity, as above"},
	{"shard.ring_owner_ns", "ns", "lower", "shard", "ops_per_s, cpu_us_per_op on read_mostly"},
	{"shard.router_read_ns", "ns", "lower", "shard", "ops_per_s, cpu_us_per_op on read_mostly"},
	{"shard.route_overhead_ns", "ns", "lower", "shard", "ops_per_s, cpu_us_per_op on read_mostly"},
	{"runtime.read_ns", "ns", "lower", "runtime (read door)", "ops_per_s on read_mostly"},
	{"runtime.session_read_covered_ns", "ns", "lower", "runtime (consistency)", "session_read_p99_us, ops_per_s on session_mix"},
	{"runtime.freshness_parked_share", "ratio", "lower", "runtime (consistency)", "session_read_p99_us on session_mix"},
	{"runtime.write_mem_us", "us", "lower", "runtime (write door)", "write_p50_us, ops_per_s on session_mix"},
	{"runtime.commit_batch_mean", "count", "higher", "runtime (group commit)", "write_p99_us on session_mix; write_p50_us on durable_write"},
	{"runtime.commit_us_p50", "us", "lower", "runtime (group commit)", "write_p99_us, ops_per_s on session_mix"},
	{"runtime.queue_sojourn_ms_p99", "ms", "lower", "runtime (queue)", "write_p99_us on durable_write"},
	{"runtime.ack_release_ms_p50", "ms", "lower", "runtime (ack release)", "write_p50_us on durable_write"},
	{"runtime.coalesced_share", "ratio", "higher", "runtime (ack release)", "write_p50_us, write_p99_us on durable_write"},
	{"node.client_write_batch_ns_per_write", "ns", "lower", "node", "cpu_us_per_op on session_mix"},
	{"node.handle_update_ns_per_entry", "ns", "lower", "node", "cpu_us_per_op on session_mix"},
	{"node.msgs_per_write", "count", "lower", "node", "the price of lag_top_p50_ms on propagation"},
	{"node.fast_gain_share", "ratio", "higher", "node", "lag_top_p50_ms, lag_full_p50_ms on propagation"},
	{"node.dup_ratio", "ratio", "lower", "node", "wasted work: cpu_us_per_op on propagation"},
	{"node.sessions_per_s", "1/s", "lower", "node", "lag_full_p50_ms on propagation"},
	{"wlog.append_batch_ns_per_entry", "ns", "lower", "wlog", "ops_per_s on session_mix"},
	{"wlog.missing_given_ns", "ns", "lower", "wlog", "lag_full_p50_ms on propagation"},
	{"store.get_ns", "ns", "lower", "store", "ops_per_s on read_mostly"},
	{"store.apply_ns", "ns", "lower", "store", "ops_per_s on session_mix"},
	{"vclock.merge_ns", "ns", "lower", "vclock", "cpu_us_per_op on session_mix"},
	{"vclock.lag_delta_ns", "ns", "lower", "vclock", "session_read_p99_us, cpu_us_per_op on session_mix"},
	{"demand.best_except_ns", "ns", "lower", "demand", "cpu_us_per_op on session_mix; predicted to move no lag_* metric"},
	{"policy.next_ns", "ns", "lower", "policy", "cpu_us_per_op on session_mix; predicted to move no lag_* metric"},
	{"protocol.marshal_ns", "ns", "lower", "protocol", "none of the four today (memory transport passes structs); baseline for a TCP workload"},
	{"protocol.unmarshal_ns", "ns", "lower", "protocol", "none today, as above"},
	{"protocol.bytes_per_entry", "B", "lower", "protocol", "none today, as above"},
	{"transport.memory_send_recv_ns", "ns", "lower", "transport", "cpu_us_per_op on session_mix"},
	{"transport.delay_error_us_p99", "us", "lower", "transport", "lag_* on propagation"},
	{"wal.append_ns_per_entry", "ns", "lower", "wal", "cpu_us_per_op on durable_write"},
	{"wal.sync_overhead_us", "us", "lower", "wal", "cpu_us_per_op, write_p50_us on durable_write"},
	{"wal.fsync_ms_p50", "ms", "lower", "wal", "write_p50_us on durable_write; must read about 2.0"},
	{"vfs.syncs_per_write", "count", "lower", "vfs (model disk)", "write_p50_us, write_p99_us on durable_write"},
	{"vfs.write_calls_per_write", "count", "lower", "vfs (model disk)", "cpu_us_per_op on durable_write"},
	{"vfs.bytes_per_user_byte", "ratio", "lower", "vfs (model disk)", "write amplification; cpu_us_per_op on durable_write"},
	{"vfs.write_us_p50", "us", "lower", "vfs (model disk)", "cpu_us_per_op on durable_write"},
	{"vfs.sync_busy_share", "ratio", "lower", "vfs (model disk)", "write_p50_us, write_p99_us, lag_full_p50_ms on durable_write"},
	{"obs.counter_add_ns", "ns", "lower", "obs", "obs.overhead_pct"},
	{"obs.hist_observe_ns", "ns", "lower", "obs", "obs.overhead_pct"},
	{"obs.overhead_pct", "%", "lower", "obs", "ROADMAP aim 4 budget (3 %): ops_per_s on session_mix"},
	{"mc.sessions_top", "sessions", "lower", "mc / sim", "cross-check of lag_top_p50_ms on propagation; repeats exactly"},
	{"mc.sessions_all", "sessions", "lower", "mc / sim", "cross-check of lag_full_p50_ms on propagation; repeats exactly"},
	{"mc.trial_ms", "ms", "lower", "mc / sim", "none: cost of the paper-figure stack"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ladder fills r.PerLayer from the run's raw readings, the isolated
// probes, and the obs-on/obs-off pair (session_mix only).
func (r *result) ladder(probes map[string]metric, obsOverheadPct float64) {
	pl := make(map[string]metric, len(perLayerSpecs))
	for _, s := range perLayerSpecs {
		pl[s.name] = metric{Unit: s.unit, Better: s.better, Layer: s.layer, Moves: s.moves}
	}
	set := func(name string, v float64, n uint64) {
		m := pl[name]
		m.Value, m.N = v, n
		pl[name] = m
	}
	for name, m := range probes {
		spec := pl[name]
		m.Better, m.Layer, m.Moves = spec.Better, spec.Layer, spec.Moves
		pl[name] = m
	}
	if r.gen != nil {
		set("harness.gen_late_p99_us", r.gen.lateP99us(), r.gen.issued)
		set("harness.peak_inflight", float64(r.gen.peakInflight), r.gen.issued)
	}
	p, writes := r.proto, float64(r.proto.clientWrites)
	set("node.msgs_per_write", ratio(float64(p.messages), writes), p.clientWrites)
	set("node.fast_gain_share", ratio(float64(p.fastGained), float64(p.absorbed)), p.absorbed)
	set("node.dup_ratio", ratio(float64(p.dups), float64(p.absorbed+p.dups)), p.absorbed+p.dups)
	set("node.sessions_per_s", ratio(float64(p.sessions), r.wall.Seconds()), p.sessions)

	o := r.obs
	set("runtime.freshness_parked_share", ratio(o.freshnessParked, float64(r.sessionReads)), r.sessionReads)
	set("runtime.commit_batch_mean", o.commitBatchMean, p.clientWrites)
	set("runtime.commit_us_p50", o.commitP50us, p.clientWrites)
	set("runtime.queue_sojourn_ms_p99", o.sojournP99ms, p.clientWrites)
	set("runtime.ack_release_ms_p50", o.ackReleaseP50ms, p.clientWrites)
	set("runtime.coalesced_share", o.coalescedShare, p.clientWrites)
	set("wal.fsync_ms_p50", o.fsyncP50ms, p.clientWrites)

	if d := r.disk; d != nil {
		set("vfs.syncs_per_write", ratio(float64(d.syncs), writes), d.syncs)
		set("vfs.write_calls_per_write", ratio(float64(d.writes), writes), d.writes)
		set("vfs.bytes_per_user_byte", ratio(float64(d.writeBytes), writes*valueBytes), d.writes)
		set("vfs.write_us_p50", d.writeP50us, d.writes)
		// One sync is in flight per replica at a time (the WAL's sync stage
		// is serial), so the busy time is the sync count times the delay.
		busy := float64(d.syncs) * modelSyncDelay.Seconds()
		set("vfs.sync_busy_share", ratio(busy, r.wall.Seconds()*float64(r.replicas)), d.syncs)
	}
	set("obs.overhead_pct", obsOverheadPct, 0)
	r.PerLayer = pl
}
