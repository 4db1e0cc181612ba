//go:build linux

package vfs

import (
	"os"
	"syscall"
)

// datasync flushes f's data — and the metadata required to read it back,
// such as the file size — without forcing a full metadata fsync. This is
// fdatasync(2): on a preallocated segment whose size never changes, it
// skips the inode update a full fsync pays on every call.
//
// The syscall runs under SyscallConn's fd reference, not a raw Fd(): the
// pipelined sync stage fsyncs outside the WAL lock, where a concurrent
// segment seal or Abandon may close the file, and holding the reference
// makes that race resolve to "use of closed file" instead of an fdatasync
// against a recycled descriptor.
func datasync(f *os.File) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	cerr := rc.Control(func(fd uintptr) {
		for {
			serr = syscall.Fdatasync(int(fd))
			if serr != syscall.EINTR {
				return
			}
		}
	})
	if cerr != nil {
		return cerr
	}
	if serr != nil {
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: serr}
	}
	return nil
}
