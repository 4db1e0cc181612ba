// Package repro reproduces "A Demand based Algorithm for Rapid Updating of
// Replicas" (Acosta-Elías & Navarro-Moldes, ICDCSW 2002) as a complete Go
// library: the fast-consistency anti-entropy protocol, the weak-consistency
// baseline it improves on, the BRITE-like topology and demand substrates its
// evaluation needs, a Monte-Carlo simulator reproducing every figure and
// table, and a live goroutine runtime running the same replica state
// machine over real message passing.
//
// Layout:
//
//	internal/core        high-level API: build a System, Simulate it, or
//	                     run it as a live Cluster
//	internal/node        the replica protocol state machine (paper §2.1):
//	                     sessions, fast-update chains, and adverts whose
//	                     summary vector lets a replica no chain reaches pull
//	internal/policy      partner selection: random / demand-static /
//	                     demand-dynamic / ablation baselines
//	internal/vclock      timestamps and summary vectors
//	internal/wlog        write logs with Bayou-style truncation
//	internal/wal         durable persistence plane: segmented on-disk
//	                     write-ahead log + snapshots behind wlog, with
//	                     group fsync, watermark compaction and
//	                     torn-tail-tolerant recovery
//	internal/store       convergent replicated KV store
//	internal/topology    line/ring/grid/BA/Waxman generators, power laws
//	internal/demand      demand fields (static, valleys, dynamic) + tables
//	internal/sim         discrete-event engine (the NS-2 stand-in)
//	internal/mc          Monte-Carlo session-level simulator (§5)
//	internal/island      §6 islands, leader election, overlay
//	internal/runtime     goroutine-per-replica live cluster with a
//	                     concurrent client plane (see below)
//	internal/transport   in-memory (faults) + TCP transports, both FIFO
//	                     per directed link; TCP sends coalesce through
//	                     per-peer writer goroutines
//	internal/shard       consistent-hash router over per-shard clusters:
//	                     one keyspace partitioned across many replica
//	                     groups, with live shard add/remove and handoff
//	internal/workload    closed-loop load generator (Zipf/uniform keys,
//	                     read/write mix, latency percentiles)
//	internal/chaos       seeded deterministic fault-schedule engine:
//	                     scripted or generated partitions, crashes,
//	                     loss/latency ramps, demand flips and reshards
//	                     against live clusters, with invariant checkers
//	                     (durability, monotonicity, convergence, demand
//	                     ordering); seed alone reproduces schedule and
//	                     verdict
//	internal/experiment  every figure/table as runnable code
//
// Entry points:
//
//	cmd/experiments      regenerate all paper figures and tables
//	cmd/fastsim          run a single configurable simulation
//	cmd/topogen          generate/inspect topologies and power-law fits
//	cmd/livedemo         drive a live cluster from the terminal
//	cmd/loadgen          drive a sharded deployment under load and report
//	                     ops/sec plus p50/p99 latency
//	cmd/chaoscheck       run seeded fault scenarios against live clusters
//	                     and check the protocol's invariants (CI's
//	                     chaos-smoke tier; failures replay from the seed)
//	examples/...         quickstart and scenario walk-throughs
//
// # Concurrent client plane
//
// The live runtime separates the client-facing Read/Write plane from the
// replication machinery, so client throughput scales with cores instead of
// serialising on per-replica locks:
//
//   - There is one read body and one write body. Cluster.Read and
//     Cluster.ReadLeveled (sessions and the shard router pass a
//     consistency level and a token) are the two faces of the first;
//     Cluster.WriteToken is the second, Cluster.Write its plain form.
//     Every refusal — admission shed, freshness deadline, stopped replica
//     — is a *runtime.Rejection.
//
//   - Reads are lock-free with respect to the replica: the read body loads
//     an atomically published store pointer (nil while the replica is
//     dead), records the demand meter via CAS on packed float bits, and
//     reads the store — which is hash-striped into independently locked
//     segments with per-segment read counters — without ever touching the
//     replica mutex.
//
//   - Writes group-commit: concurrent client writes park in a
//     per-replica write-combining queue; the first writer becomes the
//     commit leader and folds the whole batch into the node under ONE
//     replica-lock acquisition (node.ClientWriteBatch → wlog.AppendBatch,
//     one log lock and one value arena per batch), emitting ONE merged
//     fast-update fan-out per batch: the entries themselves when they fit
//     a network frame (one message per chain link), an ids-only offer
//     when they do not (the paper's steps 13–18). A batch is semantically
//     identical to the same writes issued back-to-back.
//
//   - The write log stores entries in fixed-size chunks, so sustained
//     write streams never pay growslice doubling or giant-array GC scans,
//     and truncation drops whole chunks without copying survivors.
//
//   - Over TCP, each peer connection has a dedicated writer goroutine
//     draining a bounded send queue through a bufio.Writer with
//     flush-on-idle: bursts of envelopes (session batches, group-commit
//     fan-outs) share flushes and syscalls; a full queue blocks the sender
//     briefly (bounded backpressure) and then drops like a lossy link —
//     unbounded blocking would deadlock two replicas flooding each other —
//     and the shard router inherits all of the above.
//
// # Durable persistence plane
//
// With runtime.WithDurability(dir) (or shard.Config.DataDir) each replica
// keeps a segmented on-disk write-ahead log plus a snapshot file under
// dir/n<id> (internal/wal):
//
//   - Every mutation of the write log and store is journaled in order
//     through the node.Journal hook. Client writes become durable before
//     they become visible: the group-commit leader journals the whole
//     batch under the replica lock, the WAL's background sync stage fsyncs
//     it off the lock, and acks and entry-carrying protocol traffic are
//     held until that sync covers them.
//
//   - Peer-learned entries ride the WAL buffer and reach disk with the
//     sync stage's next fsync (every record wakes it; nothing syncs on the
//     replica's run loop); losing that tail in a crash is safe
//     (anti-entropy re-fetches it).
//
//   - Snapshots roll on a byte watermark and compact sealed segments;
//     the persisted snapshot also pins the in-memory log's truncation
//     floor (wlog.LimitTruncation), so compaction can never drop entries
//     the disk cannot reproduce.
//
//   - Kill abandons the WAL unflushed (a SIGKILL simulation);
//     Cluster.RestartFromDisk replays snapshot + surviving records —
//     tolerating torn tails — and the replica rejoins propagation without
//     a full peer bootstrap. Cold construction over an existing data dir
//     recovers the same way. The chaos scenario "crash-recover-disk"
//     verifies acked writes survive with zero at-risk classifications.
//
// ARCHITECTURE.md walks the full write/read paths and the recovery story.
//
// The benchmarks in bench_test.go regenerate each experiment at reduced
// scale under `go test -bench`; cmd/experiments runs them at paper scale.
// The client-plane benchmarks (clientplane_bench_test.go) measure this
// surface under -cpu 4,8 parallelism; BenchmarkDurableGroupCommit prices
// the fsync-before-ack write path.
package repro
