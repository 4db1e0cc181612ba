package main

import (
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vfs"
)

// modelDisk is the disk every durable benchmark cluster runs on: real
// write(2) calls into a temporary directory, and no real fsync. The fixed
// sync latency comes from the vfs.FaultFS wrapped around it (newModelDisk),
// so the delay and the power cut are the stock, already-tested mechanisms;
// this layer only times and counts what crosses the vfs boundary. Host
// fsync speed is what made the BENCH_<n>.json trajectory unusable.
type modelDisk struct {
	vfs.FS // vfs.OS; every method but OpenFile and SyncDir passes through

	writes     atomic.Uint64
	writeBytes atomic.Uint64
	syncs      atomic.Uint64

	mu      sync.Mutex
	writeNs hist
}

// diskCounts is a snapshot of the model disk's counters.
type diskCounts struct {
	writes, writeBytes, syncs uint64
	writeP50us                float64
}

func (d *modelDisk) counts() diskCounts {
	d.mu.Lock()
	p50 := d.writeNs.quantile(0.5)
	d.mu.Unlock()
	return diskCounts{
		writes:     d.writes.Load(),
		writeBytes: d.writeBytes.Load(),
		syncs:      d.syncs.Load(),
		writeP50us: p50 / 1e3,
	}
}

func (d *modelDisk) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := d.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &modelFile{File: f, disk: d}, nil
}

// SyncDir does no directory fsync: the model has no metadata journal.
func (d *modelDisk) SyncDir(string) error { return nil }

type modelFile struct {
	vfs.File
	disk *modelDisk
}

func (f *modelFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	took := time.Since(t0)
	d := f.disk
	d.writes.Add(1)
	d.writeBytes.Add(uint64(n))
	d.mu.Lock()
	d.writeNs.record(int64(took))
	d.mu.Unlock()
	return n, err
}

// Sync and DataSync count the durability point and return at once; the
// FaultFS above has already slept the model latency.
func (f *modelFile) Sync() error     { f.disk.syncs.Add(1); return nil }
func (f *modelFile) DataSync() error { f.disk.syncs.Add(1); return nil }

// modelSyncDelay is the model disk's fixed sync latency.
const modelSyncDelay = 2 * time.Millisecond

// newModelDisk returns the fault layer to hand to the cluster (it carries
// the sync delay and Cut) and the counting disk under it. delay 0 gives a
// zero-latency disk for the wal probes.
func newModelDisk(seed int64, delay time.Duration) (*vfs.FaultFS, *modelDisk) {
	d := &modelDisk{FS: vfs.OS}
	ffs := vfs.NewFaultFS(d, seed)
	if delay > 0 {
		ffs.SetSyncDelay("", delay, 0, delay)
	}
	return ffs, d
}
