//go:build !linux

package vfs

import "os"

// datasync falls back to a full fsync on platforms without fdatasync.
func datasync(f *os.File) error { return f.Sync() }
