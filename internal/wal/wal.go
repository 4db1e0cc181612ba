// Package wal is the durable persistence plane: a segmented on-disk
// write-ahead log plus a snapshot file, kept per replica behind the
// in-memory write log (internal/wlog).
//
// Every record that enters a replica's write log — local client writes,
// entries gained through anti-entropy or fast push, and full-state
// adoptions (protocol snapshots, peer bootstraps, shard handoffs) — is
// appended to the active segment through a buffered writer. Appends do not
// sync; durability comes either from explicit Sync calls or, with
// StartPipeline, from the background sync stage: appends publish
// immediately, syncs retire outside the appenders' critical path, and
// WaitDurable reports when a record's covering sync has completed — the
// watermark the runtime's group-commit leader releases client acks
// against, in batch order. Entries learned from peers ride along in the
// buffer and reach disk with the next sync; losing them in a crash is safe
// because anti-entropy re-fetches them.
//
// # On-disk format
//
// A replica directory holds numbered segment files plus one snapshot file:
//
//	seg-<first-record-index>.wal   CRC32C-framed records, append-only
//	snapshot.wal                   latest snapshot (atomic tmp+rename)
//
// Every record is framed as
//
//	uint32 payload length | uint32 CRC32C(payload) | payload
//
// with fixed-width little-endian integers inside the payload. A torn tail —
// a frame cut short or failing its checksum, the normal result of a crash
// mid-write — ends recovery of that segment; everything before it replays.
//
// When the active segment exceeds Options.SegmentBytes it is sealed
// (flushed, synced, closed) and a fresh segment starts. Sealed segments are
// deleted by compaction once a snapshot covers them: SaveSnapshot records
// the log's record index at the moment the snapshot state was captured, and
// every sealed segment whose last record index is at or below that
// watermark is redundant with the snapshot and removed.
//
// # Recovery
//
// Open scans the directory and returns a Recovery: the snapshot image (if
// any) plus the surviving records in append order. The runtime replays it
// into a fresh replica — snapshot first (summary adoption + store merge),
// then records — rebuilding the summary vector, write log and store so the
// replica re-enters propagation without a full peer bootstrap.
//
// A Log is safe for concurrent use.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/wlog"
)

// Options tunes a Log. The zero value selects the defaults.
type Options struct {
	// SegmentBytes is the size at which the active segment is sealed and a
	// new one starts. Default 4 MiB.
	SegmentBytes int64
	// SnapshotBytes is how many appended bytes accumulate after the last
	// snapshot before SnapshotDue reports true (the runtime's cue to capture
	// replica state and call SaveSnapshot). Default 8 MiB.
	SnapshotBytes int64
	// FS is the filesystem the log runs on. Default vfs.OS; tests and chaos
	// scenarios inject a vfs.FaultFS to model slow, lying, and dying disks.
	FS vfs.FS
	// Preallocate extends each fresh segment to SegmentBytes up front (and
	// trims the unused tail when the segment seals). Appends then never grow
	// the file, so the sync stage's fdatasync skips the file-size metadata
	// update a growing file pays on every fsync. Recovery treats the
	// zero-filled tail as a torn end of log.
	Preallocate bool
	// CoalesceWindow is how long the pipelined sync stage waits after
	// noticing unsynced records before issuing the sync, so records appended
	// close together share one disk flush. Zero (the default) syncs as soon
	// as the previous sync completes — back-to-back batches still coalesce
	// behind the in-flight flush, with no added latency.
	CoalesceWindow time.Duration
	// OnSync, when non-nil, observes the duration of every disk-reaching
	// sync (explicit Sync calls and pipelined sync-stage flushes). Called
	// with the log's internal lock held, so it must be fast (a histogram
	// observation, not IO) and must not call back into the Log.
	OnSync func(time.Duration)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SnapshotBytes <= 0 {
		o.SnapshotBytes = 8 << 20
	}
	if o.FS == nil {
		o.FS = vfs.OS
	}
	return o
}

// Step is one replayable recovery record: either a batch of write-log
// entries or a full-state adoption. Exactly one of the fields is set.
type Step struct {
	// Entries is a batch of write-log entries, in original append order.
	Entries []wlog.Entry
	// Adopt is a full-state adoption record.
	Adopt *Adopt
}

// Adopt is a persisted full-state transfer: a summary to adopt (nil for
// content-only absorptions such as shard handoffs), the store items it
// covers, and the Lamport clock floor to carry forward.
type Adopt struct {
	// Summary is the coverage to adopt, or nil for content-only records.
	Summary *vclock.Summary
	// Items is the store image accompanying the transfer.
	Items []store.Item
	// Clock is the Lamport clock floor after the adoption.
	Clock uint64
}

// Recovery is everything Open found on disk, in replay order: the snapshot
// image first (Snapshot nil when none was saved), then Steps.
type Recovery struct {
	// Snapshot is the persisted summary vector, or nil.
	Snapshot *vclock.Summary
	// Items is the persisted store image accompanying Snapshot.
	Items []store.Item
	// Clock is the persisted Lamport clock floor.
	Clock uint64
	// Steps are the surviving log records in append order.
	Steps []Step
}

// Empty reports whether the recovery carries no state at all (a fresh
// directory).
func (r *Recovery) Empty() bool {
	return r == nil || (r.Snapshot == nil && len(r.Items) == 0 && len(r.Steps) == 0)
}

// Stats is a point-in-time observation of a Log.
type Stats struct {
	// Segments is the number of live segment files (including the active
	// one).
	Segments int
	// DiskBytes is the total size of live segment files as appended (buffered
	// bytes included, snapshot file excluded).
	DiskBytes int64
	// Records is the total number of records ever appended (the record
	// index of the newest record).
	Records uint64
	// SnapshotRecords is the record index the latest snapshot covers.
	SnapshotRecords uint64
	// Syncs counts explicit Sync calls that reached the disk.
	Syncs uint64
	// SnapshotBytes is the total bytes written as snapshot images (frame
	// headers included) over the log's lifetime — the cost of the snapshot
	// cadence, distinct from DiskBytes which the rename overwrites.
	SnapshotBytes int64
	// DirSyncErrs counts directory-fsync failures on platforms that support
	// directory fsync. Non-zero means entry creation/rename durability is in
	// doubt — the log also fail-stops on the triggering operation.
	DirSyncErrs uint64
	// LastSync is how long the most recent disk-reaching Sync took — the
	// fsync stall signal a degrading disk shows first.
	LastSync time.Duration
	// DurableRecords is the index of the newest record covered by a
	// completed sync — the pipelined durability watermark. Records -
	// DurableRecords is the in-flight (appended, not yet durable) depth.
	DurableRecords uint64
	// PipelineSyncs counts syncs issued by the background sync stage
	// (StartPipeline), a subset of Syncs.
	PipelineSyncs uint64
}

// record kinds (payload first byte).
const (
	recEntry    = 1
	recAdopt    = 2
	recSnapshot = 3
)

const (
	segPrefix    = "seg-"
	segSuffix    = ".wal"
	snapshotName = "snapshot.wal"
	snapshotTmp  = "snapshot.tmp"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed or abandoned log.
var ErrClosed = errors.New("wal: log is closed")

// segmentInfo tracks one on-disk segment.
type segmentInfo struct {
	path     string
	firstRec uint64 // index of the segment's first record
	lastRec  uint64 // index of its last record (0 while empty)
	bytes    int64
}

// Log is a replica's durable write-ahead log. Use Open to create or recover
// one.
type Log struct {
	dir  string
	opts Options
	fs   vfs.FS

	mu        sync.Mutex
	active    vfs.File
	bw        *bufio.Writer
	activeSeg segmentInfo
	sealed    []segmentInfo
	// covered is the append-side dedupe filter: the highest sequence per
	// origin already written to disk (or buffered). Replayed or re-offered
	// entries at or below it are skipped, so recovery replays each write
	// once no matter how often layers above re-journal it.
	covered vclock.Summary
	// records indexes appended records; snapRec is the index the latest
	// snapshot covers (records at or below it are redundant with it).
	records       uint64
	snapRec       uint64
	bytesSinceSnp int64
	snapBytes     int64
	syncs         uint64
	dirSyncErrs   uint64
	lastSync      time.Duration
	// durable is the pipelined durability watermark: every record with
	// index <= durable is on stable storage. Advanced by completed syncs
	// (inline or pipelined); WaitDurable blocks on it.
	durable uint64
	// pipeSyncs counts syncs issued by the background sync stage.
	pipeSyncs uint64
	// dirty is set when a record is buffered into the active segment and
	// cleared when the segment is synced, so the periodic maintenance Sync
	// is a no-op on idle replicas instead of an fsync every tick.
	dirty  bool
	closed bool
	err    error // first unrecoverable IO error; sticky

	// pipelined is set by StartPipeline; syncerDone closes when the sync
	// stage goroutine exits. syncerIdle gates the per-append wakeup signal
	// so the hot path pays a futex only when the syncer is actually parked.
	pipelined  bool
	syncerIdle bool
	syncerDone chan struct{}
	// work wakes the sync stage when records need syncing; synced wakes
	// WaitDurable callers when the durability watermark advances (or the
	// log dies).
	work   sync.Cond
	synced sync.Cond

	scratch []byte // reusable record encode buffer
}

// Open creates (or reopens) the log in dir, replaying whatever state
// survives there. It returns the log ready for appends plus the Recovery to
// replay into the replica. A fresh directory yields an empty Recovery.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, fs: opts.FS}
	l.work.L = &l.mu
	l.synced.L = &l.mu
	rec := &Recovery{}

	if err := l.loadSnapshot(rec); err != nil {
		return nil, nil, err
	}
	if err := l.scanSegments(rec); err != nil {
		return nil, nil, err
	}
	if rec.Snapshot != nil {
		l.covered.Merge(rec.Snapshot)
	}
	for _, step := range rec.Steps {
		if step.Adopt != nil {
			l.covered.Merge(step.Adopt.Summary)
			continue
		}
		for _, e := range step.Entries {
			l.covered.Advance(e.TS.Node, e.TS.Seq)
		}
	}
	if err := l.openSegment(); err != nil {
		return nil, nil, err
	}
	// Everything recovery returned is on stable storage by definition.
	l.durable = l.records
	return l, rec, nil
}

// loadSnapshot reads snapshot.wal if present. A corrupt snapshot is
// ignored (recovery proceeds from segments alone) rather than fatal: the
// tmp+rename protocol makes corruption here mean outside interference, and
// the log's job is to salvage what it can.
func (l *Log) loadSnapshot(rec *Recovery) error {
	raw, err := l.fs.ReadFile(filepath.Join(l.dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	payload, _, ok := readFrame(raw)
	if !ok || len(payload) == 0 || payload[0] != recSnapshot {
		return nil
	}
	body := payload[1:]
	snapRec, body, ok := getU64(body)
	if !ok {
		return nil
	}
	adopt, ok := decodeAdoptBody(body)
	if !ok {
		return nil
	}
	l.snapRec = snapRec
	l.records = snapRec
	rec.Snapshot = adopt.Summary
	rec.Items = adopt.Items
	rec.Clock = adopt.Clock
	return nil
}

// scanSegments replays every segment file in index order, appending
// surviving records to rec.Steps and restoring the record index.
func (l *Log) scanSegments(rec *Recovery) error {
	names, err := l.fs.Glob(filepath.Join(l.dir, segPrefix+"*"+segSuffix))
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	type seg struct {
		path     string
		firstRec uint64
	}
	segs := make([]seg, 0, len(names))
	for _, path := range names {
		base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), segPrefix), segSuffix)
		first, err := strconv.ParseUint(base, 16, 64)
		if err != nil {
			continue // not ours
		}
		segs = append(segs, seg{path: path, firstRec: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstRec < segs[j].firstRec })
	for _, s := range segs {
		raw, err := l.fs.ReadFile(s.path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		info := segmentInfo{path: s.path, firstRec: s.firstRec, bytes: int64(len(raw))}
		idx := s.firstRec - 1
		for len(raw) > 0 {
			payload, rest, ok := readFrame(raw)
			if !ok {
				break // torn tail: everything before it replays
			}
			raw = rest
			idx++
			appendStep(rec, payload)
		}
		if idx < s.firstRec {
			// No surviving records (a crash right after rotation, or a
			// fully torn head). Delete rather than track: openSegment will
			// reuse this very filename for the new active segment, and a
			// stale sealed entry for the same path would later let
			// compaction unlink the LIVE segment — silently discarding
			// synced records.
			l.fs.Remove(s.path)
			continue
		}
		info.lastRec = idx
		if idx > l.records {
			l.records = idx
		}
		l.sealed = append(l.sealed, info)
	}
	return nil
}

// appendStep decodes one record payload into rec.Steps, coalescing runs of
// entry records into a single batch.
func appendStep(rec *Recovery, payload []byte) {
	if len(payload) == 0 {
		return
	}
	switch payload[0] {
	case recEntry:
		e, ok := decodeEntry(payload[1:])
		if !ok {
			return
		}
		if n := len(rec.Steps); n > 0 && rec.Steps[n-1].Adopt == nil {
			rec.Steps[n-1].Entries = append(rec.Steps[n-1].Entries, e)
			return
		}
		rec.Steps = append(rec.Steps, Step{Entries: []wlog.Entry{e}})
	case recAdopt:
		if adopt, ok := decodeAdoptBody(payload[1:]); ok {
			rec.Steps = append(rec.Steps, Step{Adopt: &adopt})
		}
	}
}

// openSegment starts a fresh active segment after the newest record.
// Recovery never appends to a possibly-torn tail; it always seals history
// and writes forward.
func (l *Log) openSegment() error {
	first := l.records + 1
	path := filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix))
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if l.opts.Preallocate {
		// Extend to the full segment size now so appends never change the
		// file size and fdatasync skips the inode update. Recovery rejects
		// the zero-filled tail (a zero length field is never a record), and
		// seal trims it. Failure is not a durability problem — the segment
		// just grows the slow way — so it is deliberately not sticky.
		_ = l.fs.Truncate(path, l.opts.SegmentBytes)
	}
	l.active = f
	l.bw = bufio.NewWriterSize(f, 64<<10)
	l.activeSeg = segmentInfo{path: path, firstRec: first}
	return l.syncDirLocked()
}

// Append journals entries that just entered the replica's write log.
// Entries already covered by the on-disk state are skipped, so replays and
// duplicate deliveries are idempotent. Append buffers; call Sync to make
// the batch durable.
func (l *Log) Append(entries []wlog.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	for _, e := range entries {
		if e.TS.Seq <= l.covered.Get(e.TS.Node) {
			continue
		}
		l.scratch = encodeEntry(l.scratch[:0], e)
		if err := l.writeRecordLocked(l.scratch); err != nil {
			return err
		}
		l.covered.Advance(e.TS.Node, e.TS.Seq)
	}
	return nil
}

// AppendAdopt journals a full-state adoption: a protocol snapshot, a peer
// bootstrap, or a content-only absorption (summary nil, e.g. a shard
// handoff). Buffered like Append.
func (l *Log) AppendAdopt(summary *vclock.Summary, items []store.Item, clock uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	l.scratch = encodeAdoptBody(append(l.scratch[:0], recAdopt), summary, items, clock)
	if err := l.writeRecordLocked(l.scratch); err != nil {
		return err
	}
	l.covered.Merge(summary)
	return nil
}

// writeRecordLocked frames and buffers one record payload, rotating the
// active segment when it fills.
func (l *Log) writeRecordLocked(payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := l.bw.Write(hdr[:]); err != nil {
		return l.fail(err)
	}
	if _, err := l.bw.Write(payload); err != nil {
		return l.fail(err)
	}
	l.records++
	l.activeSeg.lastRec = l.records
	n := int64(len(hdr) + len(payload))
	l.activeSeg.bytes += n
	l.bytesSinceSnp += n
	l.dirty = true
	if l.syncerIdle {
		l.syncerIdle = false
		l.work.Signal()
	}
	if l.activeSeg.bytes >= l.opts.SegmentBytes {
		return l.rotateLocked()
	}
	return nil
}

// rotateLocked seals the active segment (flush + fsync + close) and starts
// a new one. Sealed segments are immutable and become eligible for
// compaction once a snapshot covers them.
func (l *Log) rotateLocked() error {
	if err := l.sealActiveLocked(); err != nil {
		return err
	}
	l.sealed = append(l.sealed, l.activeSeg)
	return l.errTo(l.openSegment())
}

// sealActiveLocked flushes and syncs the active segment and closes it.
// Sealing is a durability point for every record the segment holds, so the
// durable watermark advances through the segment's last record.
func (l *Log) sealActiveLocked() error {
	if err := l.bw.Flush(); err != nil {
		return l.fail(err)
	}
	if err := l.active.Sync(); err != nil {
		return l.fail(err)
	}
	if err := l.active.Close(); err != nil {
		return l.fail(err)
	}
	if l.opts.Preallocate {
		// Trim the preallocated zero tail so sealed segments hold exactly
		// their records. Best-effort: an untrimmed tail only wastes disk.
		_ = l.fs.Truncate(l.activeSeg.path, l.activeSeg.bytes)
	}
	l.dirty = false
	if l.activeSeg.lastRec > l.durable {
		l.durable = l.activeSeg.lastRec
		l.synced.Broadcast()
	}
	return nil
}

// Sync flushes buffered records and fsyncs the active segment — the
// inline durability point. Callers that enabled the pipelined sync stage
// (StartPipeline) normally use WaitDurable instead; Sync remains for
// drivers without a pipeline and for one-off barriers (a restart's
// full-state record, a handoff's absorption). With nothing appended since
// the last sync it is a no-op.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if !l.dirty {
		return nil
	}
	return l.syncLocked()
}

// syncLocked flushes and fsyncs the active segment under l.mu, advancing
// the durable watermark. The inline (non-pipelined) sync path.
func (l *Log) syncLocked() error {
	target := l.records
	start := time.Now()
	if err := l.bw.Flush(); err != nil {
		return l.fail(err)
	}
	if err := vfs.DataSync(l.active); err != nil {
		return l.fail(err)
	}
	l.finishSyncLocked(target, time.Since(start))
	return nil
}

// finishSyncLocked records a completed sync that covers every record up to
// target: stats, the durable watermark, and the waiter wakeup.
func (l *Log) finishSyncLocked(target uint64, took time.Duration) {
	l.lastSync = took
	l.dirty = l.records > target // bytes may have landed during an unlocked sync
	l.syncs++
	if target > l.durable {
		l.durable = target
		l.synced.Broadcast()
	}
	if l.opts.OnSync != nil {
		l.opts.OnSync(took)
	}
}

// Durable returns the durability watermark: the index of the newest record
// a completed sync covers. Records() - Durable() is the pipeline's
// in-flight depth.
func (l *Log) Durable() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Err returns the log's health: the sticky write error once one has fired,
// ErrClosed after Close or Abandon, nil while the log accepts appends. The
// group-commit leader checks it after journaling a batch — a dead log
// rejects appends without advancing Records, so the durability watermark
// the leader captured would be vacuously satisfied and WaitDurable alone
// would let an unjournaled batch ack.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return ErrClosed
	}
	return nil
}

// WaitDurable blocks until every record with index <= rec is on stable
// storage, the log's sticky error fires, or the log closes. With the
// pipelined sync stage running the wait ends when a covering sync
// completes; without it, WaitDurable issues the sync inline. It returns
// nil even on a closed log when rec was already durable — an ack whose
// covering sync completed is valid no matter what happened afterwards.
func (l *Log) WaitDurable(rec uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if rec <= l.durable {
			return nil
		}
		if l.err != nil {
			return l.err
		}
		if l.closed {
			return ErrClosed
		}
		if !l.pipelined {
			if err := l.syncLocked(); err != nil {
				return err
			}
			continue
		}
		l.synced.Wait()
	}
}

// StartPipeline launches the background sync stage: a per-log goroutine
// that flushes and fsyncs newly appended records outside the appenders'
// critical path, advancing the durability watermark WaitDurable blocks on.
// This is the pipelined group-commit protocol's second stage — appends
// publish under the caller's locks, syncs retire in the background, and
// acks release in order as the watermark passes them. Idempotent; the
// goroutine exits when the log closes or its sticky error fires.
func (l *Log) StartPipeline() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pipelined || l.closed || l.err != nil {
		return
	}
	l.pipelined = true
	l.syncerDone = make(chan struct{})
	go l.syncLoop()
}

// syncLoop is the pipelined sync stage. Each round: wait for unsynced
// records, optionally linger CoalesceWindow so near-simultaneous appends
// share the flush, then flush under the lock and fsync OUTSIDE it — the
// one disk wait in the hot path, paid without blocking appenders — and
// advance the durable watermark. A segment sealed mid-fsync is already
// durable through its own seal sync, so losing that race is success.
func (l *Log) syncLoop() {
	defer close(l.syncerDone)
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		for !l.closed && l.err == nil && l.durable >= l.records && !l.dirty {
			l.syncerIdle = true
			l.work.Wait()
		}
		l.syncerIdle = false
		if l.closed || l.err != nil {
			return
		}
		if w := l.opts.CoalesceWindow; w > 0 {
			l.mu.Unlock()
			time.Sleep(w)
			l.mu.Lock()
			if l.closed || l.err != nil {
				return
			}
		}
		target := l.records
		seg := l.activeSeg.firstRec
		if err := l.bw.Flush(); err != nil {
			l.fail(err)
			l.synced.Broadcast()
			return
		}
		f := l.active
		start := time.Now()
		l.mu.Unlock()
		err := vfs.DataSync(f)
		took := time.Since(start)
		l.mu.Lock()
		if err != nil {
			if l.closed {
				// Close/Abandon raced the fsync; they own the verdict.
				return
			}
			if l.activeSeg.firstRec == seg && l.err == nil {
				l.fail(err)
				l.synced.Broadcast()
				return
			}
			// The segment rotated under the fsync: its seal already synced
			// every record we were covering, so the error is just a stale
			// handle. The seal advanced the watermark; fall through.
			continue
		}
		l.pipeSyncs++
		l.finishSyncLocked(target, took)
	}
}

// Records returns the index of the newest appended record. Capture it under
// the same lock as the replica state it describes, then pass it to
// SaveSnapshot so compaction knows which records the snapshot subsumes.
func (l *Log) Records() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// SnapshotDue reports whether enough log has accumulated since the last
// snapshot (Options.SnapshotBytes) that the owner should capture replica
// state and call SaveSnapshot.
func (l *Log) SnapshotDue() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.closed && l.err == nil && l.bytesSinceSnp >= l.opts.SnapshotBytes && l.records > l.snapRec
}

// SaveSnapshot persists a full replica image — summary vector, store items,
// Lamport clock — captured when the log's record index was upToRec, then
// compacts: sealed segments whose records the snapshot subsumes are
// deleted. The snapshot is written to a temporary file, synced, and renamed
// over the previous one, so a crash mid-save leaves the old snapshot
// intact.
func (l *Log) SaveSnapshot(upToRec uint64, summary *vclock.Summary, items []store.Item, clock uint64) error {
	payload := encodeAdoptBody(putU64(append([]byte(nil), recSnapshot), upToRec), summary, items, clock)
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if upToRec < l.snapRec {
		return nil // an older capture raced a newer snapshot; keep the newer
	}
	tmp := filepath.Join(l.dir, snapshotTmp)
	f, err := l.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return l.fail(err)
	}
	_, werr := f.Write(frame[:])
	if werr == nil {
		_, werr = f.Write(payload)
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return l.fail(werr)
	}
	if err := l.fs.Rename(tmp, filepath.Join(l.dir, snapshotName)); err != nil {
		return l.fail(err)
	}
	if err := l.syncDirLocked(); err != nil {
		return l.fail(err)
	}
	l.snapRec = upToRec
	l.bytesSinceSnp = 0
	l.snapBytes += int64(len(payload) + len(frame))
	l.compactLocked()
	return nil
}

// compactLocked deletes sealed segments fully covered by the snapshot
// watermark. The active segment is never deleted — the path comparison is
// defence in depth against any future bookkeeping bug that would let a
// sealed entry alias the live segment file.
func (l *Log) compactLocked() {
	kept := l.sealed[:0]
	for _, seg := range l.sealed {
		if seg.lastRec <= l.snapRec && seg.path != l.activeSeg.path {
			l.fs.Remove(seg.path)
			continue
		}
		kept = append(kept, seg)
	}
	l.sealed = kept
}

// Close flushes, syncs and closes the log — a clean shutdown. Records
// buffered but never synced become durable here. The pipelined sync stage
// (if running) is stopped and joined; WaitDurable callers wake with the
// final verdict.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	var err error
	if l.err != nil {
		l.active.Close()
		err = l.err
	} else if err = l.sealActiveLocked(); err == nil {
		// The final seal made everything durable.
		if l.records > l.durable {
			l.durable = l.records
		}
	}
	l.work.Broadcast()
	l.synced.Broadcast()
	done := l.syncerDone
	l.mu.Unlock()
	if done != nil {
		<-done
	}
	return err
}

// Abandon closes the log WITHOUT flushing its user-space buffer — the
// SIGKILL simulation. Records appended since the last Sync (or buffer
// spill) are lost, exactly as a process crash would lose them; records
// synced before the crash survive. The chaos harness uses this to give the
// acked-write durability invariant real teeth. The pipelined sync stage is
// joined; WaitDurable callers past the watermark get ErrClosed.
func (l *Log) Abandon() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.active.Close()
	l.work.Broadcast()
	l.synced.Broadcast()
	done := l.syncerDone
	l.mu.Unlock()
	if done != nil {
		<-done
	}
}

// Stats returns a point-in-time observation of the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{
		Segments:        len(l.sealed),
		Records:         l.records,
		SnapshotRecords: l.snapRec,
		Syncs:           l.syncs,
		SnapshotBytes:   l.snapBytes,
		DirSyncErrs:     l.dirSyncErrs,
		LastSync:        l.lastSync,
		DurableRecords:  l.durable,
		PipelineSyncs:   l.pipeSyncs,
	}
	for _, seg := range l.sealed {
		s.DiskBytes += seg.bytes
	}
	if !l.closed {
		s.Segments++
		s.DiskBytes += l.activeSeg.bytes
	}
	return s
}

// fail records the first unrecoverable IO error and returns it; every later
// operation returns the same error (sticky failure, no partial-write
// guessing).
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = fmt.Errorf("wal: %w", err)
	}
	return l.err
}

// errTo adopts err as the sticky failure if it is non-nil.
func (l *Log) errTo(err error) error {
	if err != nil {
		return l.fail(err)
	}
	return nil
}

// syncDirLocked fsyncs the log directory so entry creation/rename/removal
// is durable. On platforms (or filesystems) without directory fsync there
// is nothing to do and nothing wrong; a real failure is counted and
// returned — silently continuing would let an acked snapshot rename or
// segment creation evaporate in a crash.
func (l *Log) syncDirLocked() error {
	err := l.fs.SyncDir(l.dir)
	if err == nil || errors.Is(err, vfs.ErrDirSyncUnsupported) {
		return nil
	}
	l.dirSyncErrs++
	return fmt.Errorf("wal: dir sync: %w", err)
}

// readFrame decodes one framed record from raw, returning the payload and
// the remaining bytes. ok is false on a torn or corrupt frame. There is
// deliberately no record-size cap: whatever size was written (and possibly
// acknowledged) must be readable back, or durable records would silently
// become "corruption" on recovery. The payload is a subslice of raw, so a
// corrupt length field costs no allocation — it either exceeds the file
// (torn tail) or fails the checksum.
func readFrame(raw []byte) (payload, rest []byte, ok bool) {
	if len(raw) < 8 {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(raw[0:4])
	crc := binary.LittleEndian.Uint32(raw[4:8])
	if n == 0 {
		// A real record payload is never empty (it always carries a kind
		// byte), but the zero-filled tail of a preallocated segment decodes
		// as length 0 with a "valid" CRC32C (the empty checksum is 0).
		// Reject it as the torn end of the log.
		return nil, nil, false
	}
	if uint64(n) > uint64(len(raw)-8) {
		return nil, nil, false
	}
	payload = raw[8 : 8+n]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, nil, false
	}
	return payload, raw[8+n:], true
}

// --- payload encoding (fixed-width little-endian) ---

func putU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func putU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func putBytes(b, v []byte) []byte {
	b = putU32(b, uint32(len(v)))
	return append(b, v...)
}

func getU32(b []byte) (uint32, []byte, bool) {
	if len(b) < 4 {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint32(b), b[4:], true
}

func getU64(b []byte) (uint64, []byte, bool) {
	if len(b) < 8 {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint64(b), b[8:], true
}

func getBytes(b []byte) ([]byte, []byte, bool) {
	n, b, ok := getU32(b)
	if !ok || uint64(n) > uint64(len(b)) {
		return nil, nil, false
	}
	return b[:n], b[n:], true
}

// encodeEntry appends an entry record payload (kind byte included) to b.
func encodeEntry(b []byte, e wlog.Entry) []byte {
	b = append(b, recEntry)
	b = putU32(b, uint32(e.TS.Node))
	b = putU64(b, e.TS.Seq)
	b = putU64(b, e.Clock)
	b = putBytes(b, []byte(e.Key))
	b = putBytes(b, e.Value)
	return b
}

// decodeEntry parses an entry record body (kind byte already consumed).
// The returned entry owns fresh copies of key and value.
func decodeEntry(b []byte) (wlog.Entry, bool) {
	var e wlog.Entry
	node, b, ok := getU32(b)
	if !ok {
		return e, false
	}
	seq, b, ok := getU64(b)
	if !ok {
		return e, false
	}
	clock, b, ok := getU64(b)
	if !ok {
		return e, false
	}
	key, b, ok := getBytes(b)
	if !ok {
		return e, false
	}
	val, _, ok := getBytes(b)
	if !ok {
		return e, false
	}
	e.TS = vclock.Timestamp{Node: vclock.NodeID(int32(node)), Seq: seq}
	e.Clock = clock
	e.Key = string(key)
	if len(val) > 0 {
		e.Value = append([]byte(nil), val...)
	}
	return e, true
}

// encodeAdoptBody appends an adoption body (clock, summary pairs, items) to
// b; the caller has already appended the kind byte (and, for snapshots, the
// record-index watermark).
func encodeAdoptBody(b []byte, summary *vclock.Summary, items []store.Item, clock uint64) []byte {
	b = putU64(b, clock)
	b = putU32(b, uint32(summary.Len()))
	summary.ForEach(func(node vclock.NodeID, seq uint64) {
		b = putU32(b, uint32(node))
		b = putU64(b, seq)
	})
	b = putU32(b, uint32(len(items)))
	for _, it := range items {
		b = putBytes(b, []byte(it.Key))
		b = putBytes(b, it.Value)
		b = putU32(b, uint32(it.TS.Node))
		b = putU64(b, it.TS.Seq)
		b = putU64(b, it.Clock)
	}
	return b
}

// decodeAdoptBody parses an adoption body. Summary is nil when the record
// carried no pairs (content-only absorption).
func decodeAdoptBody(b []byte) (Adopt, bool) {
	var a Adopt
	clock, b, ok := getU64(b)
	if !ok {
		return a, false
	}
	a.Clock = clock
	nPairs, b, ok := getU32(b)
	if !ok {
		return a, false
	}
	var sum *vclock.Summary
	for i := uint32(0); i < nPairs; i++ {
		var node uint32
		var seq uint64
		if node, b, ok = getU32(b); !ok {
			return a, false
		}
		if seq, b, ok = getU64(b); !ok {
			return a, false
		}
		if sum == nil {
			sum = vclock.NewSummary()
		}
		sum.Advance(vclock.NodeID(int32(node)), seq)
	}
	a.Summary = sum
	nItems, b, ok := getU32(b)
	if !ok {
		return a, false
	}
	if nItems > 0 {
		a.Items = make([]store.Item, 0, minU32(nItems, 4096))
	}
	for i := uint32(0); i < nItems; i++ {
		var it store.Item
		var key, val []byte
		var node uint32
		if key, b, ok = getBytes(b); !ok {
			return a, false
		}
		if val, b, ok = getBytes(b); !ok {
			return a, false
		}
		if node, b, ok = getU32(b); !ok {
			return a, false
		}
		if it.TS.Seq, b, ok = getU64(b); !ok {
			return a, false
		}
		if it.Clock, b, ok = getU64(b); !ok {
			return a, false
		}
		it.TS.Node = vclock.NodeID(int32(node))
		it.Key = string(key)
		if len(val) > 0 {
			it.Value = append([]byte(nil), val...)
		}
		a.Items = append(a.Items, it)
	}
	return a, true
}

// minU32 bounds a decoded count before it becomes an allocation size.
func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

// Remove deletes a replica's entire WAL directory on fsys — the state-loss
// path (an empty-state restart must not resurrect old disk state). Pass the
// same FS the log ran on so injected filesystems drop their tracking too.
func Remove(fsys vfs.FS, dir string) error {
	if fsys == nil {
		fsys = vfs.OS
	}
	return fsys.RemoveAll(dir)
}

var _ io.Closer = (*Log)(nil)
