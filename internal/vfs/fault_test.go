package vfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func openForWrite(t *testing.T, fs FS, name string) File {
	t.Helper()
	f, err := fs.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", name, err)
	}
	return f
}

func mustWrite(t *testing.T, f File, p []byte) {
	t.Helper()
	if n, err := f.Write(p); err != nil || n != len(p) {
		t.Fatalf("Write: n=%d err=%v, want n=%d err=nil", n, err, len(p))
	}
}

func TestOsFSPassthrough(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "a.txt")
	f := openForWrite(t, OS, name)
	mustWrite(t, f, []byte("hello"))
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := OS.ReadFile(name)
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile: %q, %v", got, err)
	}
	if err := OS.SyncDir(dir); err != nil && !errors.Is(err, ErrDirSyncUnsupported) {
		t.Fatalf("SyncDir: %v", err)
	}
	renamed := filepath.Join(dir, "b.txt")
	if err := OS.Rename(name, renamed); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	matches, err := OS.Glob(filepath.Join(dir, "*.txt"))
	if err != nil || len(matches) != 1 || matches[0] != renamed {
		t.Fatalf("Glob: %v, %v", matches, err)
	}
	if err := OS.Truncate(renamed, 2); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	got, _ = OS.ReadFile(renamed)
	if string(got) != "he" {
		t.Fatalf("after Truncate: %q", got)
	}
	if err := OS.Remove(renamed); err != nil {
		t.Fatalf("Remove: %v", err)
	}
}

func TestFaultFSCleanPassthrough(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, 1)
	name := filepath.Join(dir, "seg.wal")
	f := openForWrite(t, ffs, name)
	mustWrite(t, f, []byte("abcdef"))
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := ffs.ReadFile(name)
	if err != nil || string(got) != "abcdef" {
		t.Fatalf("ReadFile: %q, %v", got, err)
	}
	if un := ffs.Unsynced(""); un != 0 {
		t.Fatalf("Unsynced after sync = %d, want 0", un)
	}
}

func TestTransientSyncFailureHeals(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, 1)
	f := openForWrite(t, ffs, filepath.Join(dir, "seg.wal"))
	mustWrite(t, f, []byte("data"))
	ffs.FailNextSyncs("", 2)
	for i := 0; i < 2; i++ {
		if err := f.Sync(); !errors.Is(err, syscall.EIO) {
			t.Fatalf("sync %d: err=%v, want EIO", i, err)
		}
	}
	if un := ffs.Unsynced(""); un != 4 {
		t.Fatalf("failed syncs advanced watermark: Unsynced=%d, want 4", un)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("healed sync: %v", err)
	}
	if un := ffs.Unsynced(""); un != 0 {
		t.Fatalf("Unsynced after healed sync = %d, want 0", un)
	}
}

func TestPermanentSyncFailureAndHeal(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, 1)
	f := openForWrite(t, ffs, filepath.Join(dir, "seg.wal"))
	mustWrite(t, f, []byte("data"))
	ffs.FailSyncs("")
	for i := 0; i < 5; i++ {
		if err := f.Sync(); !errors.Is(err, syscall.EIO) {
			t.Fatalf("sync %d: err=%v, want EIO", i, err)
		}
	}
	ffs.Heal("")
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after Heal: %v", err)
	}
}

func TestByteBudgetENOSPC(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, 1)
	name := filepath.Join(dir, "seg.wal")
	f := openForWrite(t, ffs, name)
	ffs.SetByteBudget("", 10)
	mustWrite(t, f, []byte("12345678")) // 8 of 10
	n, err := f.Write([]byte("abcde"))  // crosses the boundary: 2 land
	if n != 2 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("boundary write: n=%d err=%v, want n=2 ENOSPC", n, err)
	}
	n, err = f.Write([]byte("x"))
	if n != 0 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("write on full disk: n=%d err=%v, want n=0 ENOSPC", n, err)
	}
	got, _ := ffs.ReadFile(name)
	if string(got) != "12345678ab" {
		t.Fatalf("on-disk bytes %q, want the torn prefix", got)
	}
	ffs.SetByteBudget("", -1) // space freed
	mustWrite(t, f, []byte("more"))
}

func TestTornWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, 7)
	name := filepath.Join(dir, "seg.wal")
	f := openForWrite(t, ffs, name)
	ffs.TearNextWrites("", 1)
	p := []byte("0123456789")
	n, err := f.Write(p)
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn write err=%v, want EIO", err)
	}
	if n >= len(p) {
		t.Fatalf("torn write n=%d, want < %d", n, len(p))
	}
	got, _ := ffs.ReadFile(name)
	if string(got) != string(p[:n]) {
		t.Fatalf("on-disk %q, want prefix %q", got, p[:n])
	}
	mustWrite(t, f, []byte("ok")) // fault healed after one write
}

func TestWriteErrors(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, 1)
	f := openForWrite(t, ffs, filepath.Join(dir, "seg.wal"))
	ffs.FailNextWrites("", 1)
	if n, err := f.Write([]byte("x")); n != 0 || !errors.Is(err, syscall.EIO) {
		t.Fatalf("transient write: n=%d err=%v", n, err)
	}
	mustWrite(t, f, []byte("x"))
	ffs.FailWrites("")
	if _, err := f.Write([]byte("y")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("permanent write err=%v, want EIO", err)
	}
	ffs.HealAll()
	mustWrite(t, f, []byte("z"))
}

func TestSyncDelayRamp(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, 1)
	f := openForWrite(t, ffs, filepath.Join(dir, "seg.wal"))
	mustWrite(t, f, []byte("x"))
	ffs.SetSyncDelay("", 10*time.Millisecond, 20*time.Millisecond, 40*time.Millisecond)
	for i, want := range []time.Duration{10, 30, 40, 40} { // ramp then cap
		start := time.Now()
		if err := f.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
		if got := time.Since(start); got < want*time.Millisecond {
			t.Fatalf("sync %d took %v, want >= %vms", i, got, want)
		}
	}
	ffs.Heal("")
	start := time.Now()
	_ = f.Sync()
	if got := time.Since(start); got > 8*time.Millisecond {
		t.Fatalf("healed sync still slow: %v", got)
	}
}

func TestScopeTargetsOnlyMatchingPaths(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, 1)
	for _, sub := range []string{"n1", "n2"} {
		if err := ffs.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	f1 := openForWrite(t, ffs, filepath.Join(dir, "n1", "seg.wal"))
	f2 := openForWrite(t, ffs, filepath.Join(dir, "n2", "seg.wal"))
	scope := string(filepath.Separator) + "n1" + string(filepath.Separator)
	ffs.FailSyncs(scope)
	if err := f1.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("n1 sync err=%v, want EIO", err)
	}
	if err := f2.Sync(); err != nil {
		t.Fatalf("n2 sync err=%v, want nil", err)
	}
}

func TestCutDropsOnlyUnsyncedSuffix(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, 42)
	name := filepath.Join(dir, "seg.wal")
	f := openForWrite(t, ffs, name)
	mustWrite(t, f, []byte("durable!")) // 8 bytes
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, f, []byte("atrisk")) // 6 unsynced bytes
	if un := ffs.Unsynced(""); un != 6 {
		t.Fatalf("Unsynced=%d, want 6", un)
	}
	_, dropped := ffs.Cut("")
	if dropped < 0 || dropped > 6 {
		t.Fatalf("dropped=%d, want in [0,6]", dropped)
	}
	got, err := ffs.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 8 || string(got[:8]) != "durable!" {
		t.Fatalf("synced prefix lost: %q", got)
	}
	if int64(len(got)) != 14-dropped {
		t.Fatalf("len=%d, dropped=%d: inconsistent", len(got), dropped)
	}
	// The handle that was open across the cut is dead.
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("write after cut err=%v, want ErrPowerCut", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("sync after cut err=%v, want ErrPowerCut", err)
	}
	// Power is back: fresh opens work.
	g := openForWrite(t, ffs, filepath.Join(dir, "seg2.wal"))
	mustWrite(t, g, []byte("new life"))
	if err := g.Sync(); err != nil {
		t.Fatalf("sync after power restore: %v", err)
	}
}

// TestSyncCoversOnlyBytesWrittenBeforeIssue pins fsync fidelity: bytes that
// land while a slow sync is in flight were not covered by it, so a power
// cut may still drop them — exactly what a real fsync guarantees.
func TestSyncCoversOnlyBytesWrittenBeforeIssue(t *testing.T) {
	// Every seed: Cut keeps a random share of the unsynced tail, so one
	// seed could let B survive by luck; none may ever count it as synced.
	var lost int64
	for seed := int64(1); seed <= 8; seed++ {
		ffs := NewFaultFS(OS, seed)
		name := filepath.Join(t.TempDir(), "seg.wal")
		f := openForWrite(t, ffs, name)
		mustWrite(t, f, []byte("AAAAAAAA"))
		ffs.SetSyncDelay("", 30*time.Millisecond, 0, 0)
		syncDone := make(chan error, 1)
		go func() { syncDone <- f.Sync() }()
		// Wait for the sync to be issued (it bumps the scope's counter
		// before it sleeps), then write B underneath it.
		for issued := false; !issued; time.Sleep(100 * time.Microsecond) {
			ffs.mu.Lock()
			issued = ffs.scopes[""].syncsSeen > 0
			ffs.mu.Unlock()
		}
		mustWrite(t, f, []byte("BBBBBBBB"))
		if err := <-syncDone; err != nil {
			t.Fatal(err)
		}
		if un := ffs.Unsynced(""); un != 8 {
			t.Fatalf("seed %d: Unsynced=%d after the sync, want 8 (B was written after the sync was issued)", seed, un)
		}
		_, dropped := ffs.Cut("")
		lost += dropped
		got, err := ffs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(got)) != 16-dropped || string(got[:8]) != "AAAAAAAA" {
			t.Fatalf("seed %d: after cut %q (dropped %d): the bytes the sync covered must survive", seed, got, dropped)
		}
	}
	if lost == 0 {
		t.Fatal("no cut ever dropped a byte of B: the in-flight sync was treated as covering it")
	}
}

func TestCutIsDeterministicPerSeed(t *testing.T) {
	sizes := make([]int64, 2)
	for i := range sizes {
		dir := t.TempDir()
		ffs := NewFaultFS(OS, 1234)
		name := filepath.Join(dir, "seg.wal")
		f := openForWrite(t, ffs, name)
		mustWrite(t, f, []byte("synced-part"))
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		mustWrite(t, f, make([]byte, 1000))
		ffs.Cut("")
		got, err := ffs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = int64(len(got))
	}
	if sizes[0] != sizes[1] {
		t.Fatalf("same seed cut different suffixes: %d vs %d", sizes[0], sizes[1])
	}
}

func TestCutAppliesToClosedFiles(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, 99)
	name := filepath.Join(dir, "seg.wal")
	f := openForWrite(t, ffs, name)
	mustWrite(t, f, []byte("sync"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, f, make([]byte, 4096))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Closed-but-unsynced bytes are page-cache bytes: still at risk.
	files, dropped := ffs.Cut("")
	if files != 1 || dropped == 0 {
		t.Fatalf("Cut over closed file: files=%d dropped=%d", files, dropped)
	}
	got, _ := ffs.ReadFile(name)
	if len(got) < 4 || string(got[:4]) != "sync" {
		t.Fatalf("synced prefix lost: %d bytes", len(got))
	}
}

func TestRenameCarriesDurabilityTrack(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, 5)
	tmp := filepath.Join(dir, "snap.tmp")
	final := filepath.Join(dir, "snapshot.wal")
	f := openForWrite(t, ffs, tmp)
	mustWrite(t, f, []byte("snapshot-bytes"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Rename(tmp, final); err != nil {
		t.Fatal(err)
	}
	if files, _ := ffs.Cut(""); files != 0 {
		t.Fatalf("Cut truncated a fully synced renamed file (files=%d)", files)
	}
	got, err := ffs.ReadFile(final)
	if err != nil || string(got) != "snapshot-bytes" {
		t.Fatalf("renamed file: %q, %v", got, err)
	}
}

func TestDirSyncFaultInjection(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, 1)
	ffs.FailNextDirSyncs("", 1)
	if err := ffs.SyncDir(dir); !errors.Is(err, syscall.EIO) {
		t.Fatalf("SyncDir err=%v, want EIO", err)
	}
	if err := ffs.SyncDir(dir); err != nil && !errors.Is(err, ErrDirSyncUnsupported) {
		t.Fatalf("healed SyncDir: %v", err)
	}
}

func TestRemoveAllDropsTracks(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, 1)
	sub := filepath.Join(dir, "n1")
	if err := ffs.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	f := openForWrite(t, ffs, filepath.Join(sub, "seg.wal"))
	mustWrite(t, f, []byte("bytes"))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ffs.RemoveAll(sub); err != nil {
		t.Fatal(err)
	}
	if un := ffs.Unsynced(""); un != 0 {
		t.Fatalf("tracks survive RemoveAll: Unsynced=%d", un)
	}
	if files, _ := ffs.Cut(""); files != 0 {
		t.Fatalf("Cut found files after RemoveAll: %d", files)
	}
}
