package runtime

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/node"
	"repro/internal/store"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/wal"
	"repro/internal/wlog"
)

// This file wires the durable persistence plane (internal/wal) into the
// live cluster.
//
// With WithDurability(dir) every replica keeps a segmented write-ahead log
// plus snapshot under dir/n<id>. The flow:
//
//   - Every mutation of the replica's write log and store is journaled
//     through the node.Journal hook, under the replica lock, so the WAL
//     sees mutations in exactly the order the replica applied them.
//
//   - Client writes become durable before they become visible: the
//     group-commit leader appends the batch under the replica lock, the
//     WAL's background sync stage fsyncs it (one fsync per batch or per
//     several, never per write) with the lock released, and acks plus
//     fan-out release in commit order only once that sync covers them
//     (ackrelease.go). The run loop queues entry-carrying envelopes on
//     that same release stage, so no anti-entropy session can serve an
//     entry that could still be lost in a crash.
//
//   - Entries learned from peers are journaled buffered and reach disk
//     with the sync stage's next fsync (every record wakes it); losing
//     the tail in a crash is safe because anti-entropy re-fetches it (the
//     recovered summary regresses only for *remote* origins, never for the
//     replica's own writes).
//
//   - A maintenance ticker per replica checks the WAL's health, and — when
//     enough log has accumulated (wal.Options.SnapshotBytes) — captures a
//     consistent (summary, store, clock) image under the replica lock,
//     saves it as the new snapshot, and lets the WAL compact sealed
//     segments the snapshot subsumes. The persisted snapshot also becomes
//     the in-memory write log's truncation floor (wlog.LimitTruncation):
//     in-memory compaction can never drop entries newer than what the
//     snapshot persists, so disk recovery is always complete.
//
//   - Kill abandons the WAL without flushing (the SIGKILL simulation);
//     RestartFromDisk reopens it, replays snapshot + surviving records
//     into a fresh node, and the replica re-enters propagation without a
//     full peer bootstrap. Stop closes WALs cleanly (flush + fsync).

// WithDurability enables the durable persistence plane: every replica
// keeps a segmented on-disk WAL and snapshot under dir/n<id>, client
// writes are acknowledged only after their group-committed batch is
// fsynced, and replicas recover their state from disk — at construction
// (cold start over an existing dir) or via Cluster.RestartFromDisk after a
// Kill. With durability off (the default) nothing touches disk.
func WithDurability(dir string) Option {
	return func(o *options) { o.durDir = dir }
}

// WithDurabilityTuning overrides the WAL configuration for durable
// clusters: geometry (segment size, snapshot cadence) and the pipelined
// sync stage's knobs (segment preallocation, fsync-coalescing window). It
// replaces the runtime's defaults wholesale — including the default-on
// segment preallocation — so pass exactly the configuration you want. Only
// meaningful alongside WithDurability.
func WithDurabilityTuning(opts wal.Options) Option {
	return func(o *options) { o.walOpts = opts }
}

// WithDurabilityFS runs every replica's WAL on fsys instead of the real
// filesystem. The chaos harness and tests inject a vfs.FaultFS here to
// model slow, lying, and dying disks; production clusters omit it (vfs.OS).
//
// The degradation policy under injected (or real) disk faults:
//
//   - Slow disk (fsync stalls): acks slow down — durable-before-visible is
//     never relaxed — and the stall surfaces as repro_wal_sync_stall_seconds.
//   - Failed sync, batch path: the replica fail-stops before any ack or
//     fan-out the sync covers escapes (see release).
//   - Failed sync with no batch waiting on it (peer-learned entries): the
//     WAL error is sticky, so the next maintenance tick fail-stops the
//     replica rather than waiting for a client batch to trip over it (see
//     walMaintain).
func WithDurabilityFS(fsys vfs.FS) Option {
	return func(o *options) { o.walFS = fsys }
}

// walMaintenanceInterval is how often each durable replica checks its
// WAL's health and whether a snapshot is due.
const walMaintenanceInterval = 250 * time.Millisecond

// walDir returns replica id's WAL directory under the cluster data dir.
func walDir(base string, id NodeID) string {
	return filepath.Join(base, fmt.Sprintf("n%d", id))
}

// walJournal adapts a wal.Log to the node.Journal hook. Append errors are
// sticky inside the wal and surface at the next Sync — the ack path — so
// the hook itself stays error-free, as node requires.
type walJournal struct{ w *wal.Log }

func (j walJournal) JournalEntries(entries []wlog.Entry) { _ = j.w.Append(entries) }

func (j walJournal) JournalAdopt(summary *vclock.Summary, items []store.Item, clock uint64) {
	_ = j.w.AppendAdopt(summary, items, clock)
}

// openWAL opens (or recovers) replica id's WAL and starts its sync stage:
// every WAL the runtime holds is pipelined, so a durability gate always
// waits on the background sync and never fsyncs on its caller's goroutine.
func (c *Cluster) openWAL(id NodeID) (*wal.Log, *wal.Recovery, error) {
	w, rec, err := wal.Open(walDir(c.opts.durDir, id), c.opts.walOptions())
	if err != nil {
		return nil, nil, fmt.Errorf("runtime: replica %v durability: %w", id, err)
	}
	w.StartPipeline()
	return w, rec, nil
}

// openReplicaWAL opens r's WAL during cluster construction. On success
// r.wal is set and the recovery is returned for the caller to replay once
// the node exists. On failure the error is recorded on the cluster and
// surfaced by Start.
func (c *Cluster) openReplicaWAL(r *replica) *wal.Recovery {
	if c.opts.durDir == "" || c.initErr != nil {
		return nil
	}
	w, rec, err := c.openWAL(r.id)
	if err != nil {
		c.initErr = err
		return nil
	}
	r.wal = w
	return rec
}

// finishReplicaDurability replays a recovery into the freshly built node
// (journal still detached, so nothing is re-journaled), then attaches the
// journal and pins the in-memory log's truncation floor to the persisted
// snapshot.
func (r *replica) finishReplicaDurability(rec *wal.Recovery) {
	if r.wal == nil {
		return
	}
	if !rec.Empty() {
		replayRecovery(r.node, rec)
	}
	r.node.AttachJournal(walJournal{r.wal})
	r.node.Log().LimitTruncation(rec.Snapshot)
}

// replayRecovery folds a WAL recovery into a fresh node, in disk order:
// snapshot image first, then every surviving record.
func replayRecovery(n *node.Node, rec *wal.Recovery) {
	n.Bootstrap(rec.Snapshot, rec.Items, rec.Clock)
	for _, step := range rec.Steps {
		if step.Adopt != nil {
			n.Bootstrap(step.Adopt.Summary, step.Adopt.Items, step.Adopt.Clock)
			continue
		}
		n.Replay(step.Entries)
	}
}

// RestartFromDisk brings a killed durable replica back from its on-disk
// state: the WAL is reopened, the snapshot and every surviving record
// replay into a fresh node under the same identity, and the replica
// rejoins propagation owing its peers only the entries that arrived while
// it was down — no full peer bootstrap. Acknowledged client writes were
// fsynced before their ack and before any peer could see them, so they
// always survive this path; peer-learned entries buffered but not yet
// synced at the crash re-arrive through normal anti-entropy.
//
// It requires a durable, memory-backed cluster and a replica killed by
// Kill (or found dead).
func (c *Cluster) RestartFromDisk(id NodeID) error {
	r, ctx, err := c.restartable(id)
	if err != nil {
		return err
	}
	if c.opts.durDir == "" {
		return fmt.Errorf("runtime: replica %v has no durability (use WithDurability)", id)
	}
	// The whole revival — including wal.Open, which creates (and would
	// truncate) the next active segment file — runs under r.mu after the
	// dead-check, so a racing restart can never have this path touch the
	// files of a replica that is already alive again.
	r.mu.Lock()
	if !r.dead {
		r.mu.Unlock()
		return fmt.Errorf("runtime: replica %v is alive", id)
	}
	w, rec, err := c.openWAL(id)
	if err != nil {
		r.mu.Unlock()
		return err
	}
	r.node, r.wal = c.newNode(r), w
	r.finishReplicaDurability(rec)
	// Content handed in via ApplySnapshot while this replica was down lives
	// in no WAL record of ours; re-absorb (and journal) it now.
	if items := c.absorbed.Snapshot(); len(items) > 0 {
		r.node.AbsorbItems(items)
	}
	c.revive(ctx, r)
	return nil
}

// walMaintain is the durable replica's periodic housekeeping: check the
// WAL's health, and when enough log has accumulated, capture a consistent
// state image and roll it into a new snapshot (which compacts sealed
// segments and advances the in-memory truncation floor). It never syncs:
// every runtime WAL is pipelined and every record wakes its sync stage, so
// the run goroutine has no flushing to do and never waits on the disk here.
func (r *replica) walMaintain() {
	w := r.wal
	if w == nil {
		return
	}
	if err := w.Err(); err != nil {
		// The WAL error is sticky: nothing this replica buffers can ever
		// reach disk again, so fail-stop now instead of letting the next
		// client batch trip over it. walMaintain runs ON the replica's run
		// goroutine and failStop joins that goroutine, so the crash must be
		// delivered from outside it. The dead-check re-runs under r.mu in
		// case a batch-path fail-stop (or Kill) won the race.
		go func() {
			r.mu.Lock()
			if r.dead {
				r.mu.Unlock()
				return
			}
			r.failStop(err)
		}()
		return
	}
	if !w.SnapshotDue() {
		return
	}
	r.mu.Lock()
	if r.dead {
		r.mu.Unlock()
		return
	}
	// Everything journaled so far happened under this lock, so the record
	// index and the state image are a consistent pair.
	upTo := w.Records()
	sum := r.node.Summary()
	items := r.node.Store().Snapshot()
	clk := r.node.Clock()
	lg := r.node.Log()
	r.mu.Unlock()
	if err := w.SaveSnapshot(upTo, sum, items, clk); err != nil {
		return
	}
	lg.LimitTruncation(sum)
}
