package vfs

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ErrPowerCut is returned by operations on a file handle that was open when
// Cut simulated a power failure: the process image holding the handle is
// gone, so nothing may flow through it again. Fresh opens after a cut
// succeed — power is back on by then.
var ErrPowerCut = fmt.Errorf("vfs: simulated power cut")

// errInjectedIO is the injected EIO for dying-disk faults. errors.Is
// matches syscall.EIO, like a real failing disk surfaced through os.
var errInjectedIO = fmt.Errorf("vfs: injected disk fault: %w", syscall.EIO)

// errInjectedNoSpace is the injected ENOSPC once a byte budget is spent.
var errInjectedNoSpace = fmt.Errorf("vfs: injected disk full: %w", syscall.ENOSPC)

// faultState is the fault configuration of one scope. All fields are
// guarded by the owning FaultFS's mutex.
type faultState struct {
	// fsync latency ramp: the k-th sync under this scope sleeps
	// base + ramp*(k-1), capped at max (0 = uncapped).
	syncBase, syncRamp, syncMax time.Duration
	syncsSeen                   int

	// error injection: permanent flags fail every matching op; the N
	// counters fail the next N then self-heal (a transient fault).
	syncErrPermanent  bool
	syncErrN          int
	writeErrPermanent bool
	writeErrN         int
	dirSyncErrN       int

	// tornN tears the next N writes: only a seeded prefix reaches the
	// disk and the write reports a short-write IO error.
	tornN int

	// budget is the remaining write-byte budget; once it hits zero every
	// further byte fails with ENOSPC (the write that crosses it is torn at
	// the boundary). budgeted gates the field so zero-value means
	// "unlimited", not "full".
	budgeted bool
	budget   int64
}

// track follows one file's durability state: how many bytes reached the
// inner filesystem and how many of those were covered by a successful
// sync. Tracks outlive Close — a closed-but-unsynced file still loses its
// tail to a power cut, exactly like a real page cache.
type track struct {
	size   int64
	synced int64
	open   *faultFile // nil once closed
}

// FaultFS wraps an inner FS and injects deterministic, seeded storage
// faults: fsync latency ramps, transient and permanent IO errors, ENOSPC
// after a byte budget, torn writes, and power-cut simulation (Cut). The
// zero state injects nothing — a fresh FaultFS is a passthrough until a
// fault is armed.
//
// Faults are scoped by path substring: scope "" hits every file, scope
// "/n3/" hits only replica 3's directory, so one FaultFS can serve a whole
// cluster while killing a single replica's disk. All methods are safe for
// concurrent use; every random draw comes from the seeded RNG, so a
// single-threaded caller gets byte-identical fault placement from the same
// seed.
type FaultFS struct {
	inner FS

	mu     sync.Mutex
	rng    *rand.Rand
	scopes map[string]*faultState
	tracks map[string]*track
}

// NewFaultFS wraps inner with a fault injector seeded by seed.
func NewFaultFS(inner FS, seed int64) *FaultFS {
	return &FaultFS{
		inner:  inner,
		rng:    rand.New(rand.NewSource(seed)),
		scopes: make(map[string]*faultState),
		tracks: make(map[string]*track),
	}
}

// scope returns (creating if needed) the fault state for a scope key.
// Callers hold f.mu.
func (f *FaultFS) scope(key string) *faultState {
	st := f.scopes[key]
	if st == nil {
		st = &faultState{}
		f.scopes[key] = st
	}
	return st
}

// matching returns the states whose scope key is a substring of path, in
// sorted key order so multi-scope fault resolution is deterministic.
// Callers hold f.mu.
func (f *FaultFS) matching(path string) []*faultState {
	if len(f.scopes) == 0 {
		return nil
	}
	keys := make([]string, 0, len(f.scopes))
	for k := range f.scopes {
		if strings.Contains(path, k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	states := make([]*faultState, len(keys))
	for i, k := range keys {
		states[i] = f.scopes[k]
	}
	return states
}

// SetSyncDelay arms an fsync latency ramp on scope: the k-th sync of every
// matching file sleeps base + ramp*(k-1), capped at max (max 0 = no cap).
// The slow-disk model: latency grows as the device degrades.
func (f *FaultFS) SetSyncDelay(scope string, base, ramp, max time.Duration) {
	f.mu.Lock()
	st := f.scope(scope)
	st.syncBase, st.syncRamp, st.syncMax = base, ramp, max
	st.syncsSeen = 0
	f.mu.Unlock()
}

// FailSyncs makes every further sync under scope fail with EIO — the
// permanently dying disk. Heal reverses it.
func (f *FaultFS) FailSyncs(scope string) {
	f.mu.Lock()
	f.scope(scope).syncErrPermanent = true
	f.mu.Unlock()
}

// FailNextSyncs makes the next n syncs under scope fail with EIO, then
// self-heal — a transient controller hiccup.
func (f *FaultFS) FailNextSyncs(scope string, n int) {
	f.mu.Lock()
	f.scope(scope).syncErrN = n
	f.mu.Unlock()
}

// FailWrites makes every further write under scope fail with EIO.
func (f *FaultFS) FailWrites(scope string) {
	f.mu.Lock()
	f.scope(scope).writeErrPermanent = true
	f.mu.Unlock()
}

// FailNextWrites makes the next n writes under scope fail with EIO, then
// self-heal.
func (f *FaultFS) FailNextWrites(scope string, n int) {
	f.mu.Lock()
	f.scope(scope).writeErrN = n
	f.mu.Unlock()
}

// FailNextDirSyncs makes the next n directory fsyncs under scope fail with
// EIO, then self-heal.
func (f *FaultFS) FailNextDirSyncs(scope string, n int) {
	f.mu.Lock()
	f.scope(scope).dirSyncErrN = n
	f.mu.Unlock()
}

// TearNextWrites tears the next n writes under scope: only a seeded prefix
// of each reaches the disk and the write reports a short-write IO error —
// the lying disk that loses the tail of an append.
func (f *FaultFS) TearNextWrites(scope string, n int) {
	f.mu.Lock()
	f.scope(scope).tornN = n
	f.mu.Unlock()
}

// SetByteBudget arms ENOSPC on scope: after n more written bytes every
// further byte fails with disk-full, and the write crossing the boundary
// is torn at it. A negative n clears the budget (space was freed).
func (f *FaultFS) SetByteBudget(scope string, n int64) {
	f.mu.Lock()
	st := f.scope(scope)
	if n < 0 {
		st.budgeted, st.budget = false, 0
	} else {
		st.budgeted, st.budget = true, n
	}
	f.mu.Unlock()
}

// Heal clears every fault armed on scope. Files and their tracked
// durability state are untouched.
func (f *FaultFS) Heal(scope string) {
	f.mu.Lock()
	delete(f.scopes, scope)
	f.mu.Unlock()
}

// HealAll clears every fault on every scope.
func (f *FaultFS) HealAll() {
	f.mu.Lock()
	f.scopes = make(map[string]*faultState)
	f.mu.Unlock()
}

// Unsynced reports the bytes written but not yet covered by a successful
// sync across every tracked file under scope — what a power cut may lose.
func (f *FaultFS) Unsynced(scope string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var total int64
	for path, tr := range f.tracks {
		if strings.Contains(path, scope) {
			total += tr.size - tr.synced
		}
	}
	return total
}

// Cut simulates a power failure for every file under scope: an
// injector-chosen suffix of each file's written-but-unsynced bytes is
// dropped (truncated at an arbitrary byte boundary — possibly mid-record),
// bytes covered by the last successful sync always survive, and open
// handles under scope are dead from now on (ErrPowerCut). Fresh opens
// after the cut succeed: power is back. It returns the number of files cut
// and the total bytes dropped.
func (f *FaultFS) Cut(scope string) (files int, dropped int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	paths := make([]string, 0, len(f.tracks))
	for path := range f.tracks {
		if strings.Contains(path, scope) {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths) // deterministic rng consumption order
	for _, path := range paths {
		tr := f.tracks[path]
		if tr.open != nil {
			tr.open.dead = true
			tr.open = nil
		}
		unsynced := tr.size - tr.synced
		if unsynced <= 0 {
			continue
		}
		keep := tr.synced + f.rng.Int63n(unsynced+1)
		if keep == tr.size {
			continue // this file's unsynced tail happened to survive
		}
		if err := f.inner.Truncate(path, keep); err != nil {
			continue // file vanished (renamed/removed) — nothing to cut
		}
		files++
		dropped += tr.size - keep
		tr.size = keep
	}
	return files, dropped
}

// faultFile wraps one open inner File with the owning injector.
type faultFile struct {
	fs    *FaultFS
	inner File
	path  string
	dead  bool // set by Cut; guarded by fs.mu
}

// Write implements File, applying write faults in scope order: permanent
// and transient EIO, torn writes, and the ENOSPC byte budget. A faulted
// write still delivers its surviving prefix to the inner file, so the disk
// ends up exactly as torn as the fault dictates.
func (f *faultFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	if f.dead {
		f.fs.mu.Unlock()
		return 0, ErrPowerCut
	}
	allow := len(p)
	var werr error
	for _, st := range f.fs.matching(f.path) {
		switch {
		case st.writeErrPermanent:
			allow, werr = 0, errInjectedIO
		case st.writeErrN > 0:
			st.writeErrN--
			allow, werr = 0, errInjectedIO
		}
		if st.tornN > 0 && allow > 0 {
			st.tornN--
			allow, werr = f.fs.rng.Intn(allow), errInjectedIO
		}
		if st.budgeted && int64(allow) > st.budget {
			allow, werr = int(st.budget), errInjectedNoSpace
		}
	}
	for _, st := range f.fs.matching(f.path) {
		if st.budgeted {
			st.budget -= int64(allow)
		}
	}
	f.fs.mu.Unlock()

	var n int
	var err error
	if allow > 0 {
		n, err = f.inner.Write(p[:allow])
	}
	f.fs.mu.Lock()
	if tr := f.fs.tracks[f.path]; tr != nil {
		tr.size += int64(n)
	}
	f.fs.mu.Unlock()
	if err != nil {
		return n, err
	}
	if werr != nil {
		return n, werr
	}
	return n, nil
}

// Sync implements File, applying the latency ramp and injected sync
// failures. Only a sync that truly reached the inner file advances the
// file's durable watermark — a failed sync leaves every unsynced byte
// exposed to Cut, exactly like a real fsync failure.
func (f *faultFile) Sync() error { return f.syncThrough((File).Sync) }

// DataSync implements DataSyncer: the fdatasync fast path goes through
// exactly the same fault machinery as Sync — latency ramps, injected
// errors, and the durable-watermark advance — so chaos scenarios exercise
// the pipelined sync stage with no blind spots.
func (f *faultFile) DataSync() error { return f.syncThrough(DataSync) }

// syncThrough runs one durability point against the inner file via sink,
// applying injected delays and failures first.
func (f *faultFile) syncThrough(sink func(File) error) error {
	f.fs.mu.Lock()
	if f.dead {
		f.fs.mu.Unlock()
		return ErrPowerCut
	}
	// A sync covers what was written before it was issued: bytes that land
	// while it sleeps (concurrent appends) stay exposed to Cut.
	var covered int64
	if tr := f.fs.tracks[f.path]; tr != nil {
		covered = tr.size
	}
	var delay time.Duration
	var serr error
	for _, st := range f.fs.matching(f.path) {
		st.syncsSeen++
		d := st.syncBase + st.syncRamp*time.Duration(st.syncsSeen-1)
		if st.syncMax > 0 && d > st.syncMax {
			d = st.syncMax
		}
		if d > delay {
			delay = d
		}
		switch {
		case st.syncErrPermanent:
			serr = errInjectedIO
		case st.syncErrN > 0:
			st.syncErrN--
			serr = errInjectedIO
		}
	}
	f.fs.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if serr != nil {
		return serr
	}
	if err := sink(f.inner); err != nil {
		return err
	}
	f.fs.mu.Lock()
	if tr := f.fs.tracks[f.path]; tr != nil {
		// min: a truncate may have shrunk the file under the sync.
		tr.synced = max(tr.synced, min(covered, tr.size))
	}
	f.fs.mu.Unlock()
	return nil
}

// Close implements File. The file's durability track survives: a closed
// file's unsynced bytes are still page-cache bytes a power cut can drop.
func (f *faultFile) Close() error {
	f.fs.mu.Lock()
	dead := f.dead
	if tr := f.fs.tracks[f.path]; tr != nil && tr.open == f {
		tr.open = nil
	}
	f.fs.mu.Unlock()
	err := f.inner.Close()
	if dead {
		return ErrPowerCut
	}
	return err
}

// MkdirAll implements FS (passthrough).
func (f *FaultFS) MkdirAll(dir string, perm os.FileMode) error { return f.inner.MkdirAll(dir, perm) }

// OpenFile implements FS, starting (or resetting, under O_TRUNC) the
// file's durability track.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	ff := &faultFile{fs: f, inner: inner, path: name}
	f.mu.Lock()
	tr := f.tracks[name]
	if tr == nil || flag&os.O_TRUNC != 0 {
		tr = &track{}
		f.tracks[name] = tr
	}
	tr.open = ff
	f.mu.Unlock()
	return ff, nil
}

// ReadFile implements FS (passthrough — recovery reads what survived).
func (f *FaultFS) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }

// Rename implements FS, carrying the durability track to the new path (the
// snapshot tmp+rename protocol must keep its sync watermark).
func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.mu.Lock()
	if tr, ok := f.tracks[oldpath]; ok {
		delete(f.tracks, oldpath)
		f.tracks[newpath] = tr
		if tr.open != nil {
			tr.open.path = newpath
		}
	}
	f.mu.Unlock()
	return nil
}

// Remove implements FS, dropping the file's track.
func (f *FaultFS) Remove(name string) error {
	err := f.inner.Remove(name)
	f.mu.Lock()
	delete(f.tracks, name)
	f.mu.Unlock()
	return err
}

// RemoveAll implements FS, dropping every track under path.
func (f *FaultFS) RemoveAll(path string) error {
	err := f.inner.RemoveAll(path)
	f.mu.Lock()
	for p := range f.tracks {
		if strings.HasPrefix(p, path) {
			delete(f.tracks, p)
		}
	}
	f.mu.Unlock()
	return err
}

// Glob implements FS (passthrough).
func (f *FaultFS) Glob(pattern string) ([]string, error) { return f.inner.Glob(pattern) }

// SyncDir implements FS, applying injected directory-fsync failures.
func (f *FaultFS) SyncDir(dir string) error {
	f.mu.Lock()
	var serr error
	for _, st := range f.matching(dir) {
		if st.dirSyncErrN > 0 {
			st.dirSyncErrN--
			serr = errInjectedIO
		}
	}
	f.mu.Unlock()
	if serr != nil {
		return serr
	}
	return f.inner.SyncDir(dir)
}

// Truncate implements FS, clamping the file's durability track to the new
// size.
func (f *FaultFS) Truncate(name string, size int64) error {
	if err := f.inner.Truncate(name, size); err != nil {
		return err
	}
	f.mu.Lock()
	if tr, ok := f.tracks[name]; ok {
		if tr.size > size {
			tr.size = size
		}
		if tr.synced > size {
			tr.synced = size
		}
	}
	f.mu.Unlock()
	return nil
}

var _ FS = (*FaultFS)(nil)
