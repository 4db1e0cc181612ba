package runtime_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/demand"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/internal/vclock"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// rejecting is a workload.Client whose every op fails with err, wrapped the
// way the shard router wraps a group's error.
type rejecting struct{ err error }

func (r rejecting) Write(string, []byte) (shard.Receipt, error) {
	return shard.Receipt{}, fmt.Errorf("shard: write to s0: %w", r.err)
}

func (r rejecting) ReadVersioned(string, runtime.Level) (store.Versioned, bool, error) {
	return store.Versioned{}, false, r.err
}

// rejectionCluster starts a 3-replica cluster for one table row; a non-nil
// ffs makes it durable on that filesystem.
func rejectionCluster(t *testing.T, ffs *vfs.FaultFS, opts ...runtime.Option) *runtime.Cluster {
	t.Helper()
	opts = append([]runtime.Option{
		runtime.WithSeed(7),
		runtime.WithSessionInterval(10 * time.Millisecond),
		runtime.WithAdvertInterval(5 * time.Millisecond),
	}, opts...)
	if ffs != nil {
		opts = append(opts, runtime.WithDurability(t.TempDir()), runtime.WithDurabilityFS(ffs))
	}
	c := runtime.New(topology.Complete(3), demand.Static{1, 1, 1}, opts...)
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// staleRead issues a leveled read whose token names a write no replica will
// ever cover, so its freshness wait deadlines.
func staleRead(t *testing.T, lvl runtime.Level) error {
	c := rejectionCluster(t, nil)
	var tok runtime.Token
	tok.ObserveWrite(vclock.Timestamp{Node: 0, Seq: 1 << 30})
	opt := &runtime.LeveledRead{Level: lvl, Token: &tok, MaxLag: 1, Deadline: 20 * time.Millisecond}
	_, _, err := c.ReadLeveled(1, "k", opt)
	return err
}

// diskFault pumps writes at replica 0 of a durable cluster after arm has
// broken its disk, returning the first failure.
func diskFault(t *testing.T, arm func(ffs *vfs.FaultFS, scope string)) error {
	ffs := vfs.NewFaultFS(vfs.OS, 21)
	c := rejectionCluster(t, ffs)
	if _, err := c.Write(0, "fits", []byte("small")); err != nil {
		t.Fatal(err)
	}
	arm(ffs, string(filepath.Separator)+"n0"+string(filepath.Separator))
	for i := 0; i < 64; i++ {
		if _, err := c.Write(0, fmt.Sprintf("fill%02d", i), bytes.Repeat([]byte("z"), 64)); err != nil {
			return err
		}
	}
	return nil
}

// TestRejectionTable drives every path that can refuse a client op and
// holds each to the one rejection type's contract: the kind and reason of
// the path, the kind's sentinel and no other, a positive RetryAfter exactly
// on the retryable kinds, the WAL cause still reachable through the chain —
// and workload.Run spending retry budget on exactly the retryable ones.
func TestRejectionTable(t *testing.T) {
	cases := []struct {
		name     string
		reject   func(t *testing.T) error
		kind     runtime.Kind
		reason   string
		sentinel error // nil: matches neither
		cause    error // nil: none
	}{
		{"queue-full", func(t *testing.T) error {
			c := rejectionCluster(t, nil, runtime.WithAdmission(runtime.AdmissionConfig{MaxQueueDepth: 1, Target: -1}))
			waitParked, release := runtime.StallLeader(t, c, 0, "leader")
			defer release()
			go c.Write(0, "parked", []byte("v"))
			waitParked(1)
			_, err := c.Write(0, "overflow", []byte("v"))
			return err
		}, runtime.KindOverload, runtime.ShedQueueFull, runtime.ErrOverload, nil},
		{"sojourn", func(t *testing.T) error {
			// Every write's sojourn exceeds a 1ns target: the second write
			// observed a full interval after the first latches the
			// controller, and the next arrival is shed.
			const interval = 2 * time.Millisecond
			c := rejectionCluster(t, nil, runtime.WithAdmission(runtime.AdmissionConfig{Target: 1, Interval: interval}))
			for i := 0; i < 2; i++ {
				if _, err := c.Write(0, "k", []byte("v")); err != nil {
					t.Fatal(err)
				}
				time.Sleep(2 * interval)
			}
			_, err := c.Write(0, "k", []byte("v"))
			return err
		}, runtime.KindOverload, runtime.ShedSojourn, runtime.ErrOverload, nil},
		{"deadline", func(t *testing.T) error {
			const deadline = 10 * time.Millisecond
			c := rejectionCluster(t, nil, runtime.WithAdmission(runtime.AdmissionConfig{Target: -1, WriteDeadline: deadline}))
			waitParked, release := runtime.StallLeader(t, c, 0, "live")
			defer release()
			errs := make(chan error, 1)
			go func() {
				_, err := c.Write(0, "expired", []byte("v"))
				errs <- err
			}()
			waitParked(1)
			time.Sleep(2 * deadline)
			release()
			return <-errs
		}, runtime.KindOverload, runtime.ShedDeadline, runtime.ErrOverload, nil},
		{"not-fresh/session", func(t *testing.T) error { return staleRead(t, runtime.LevelSession) },
			runtime.KindNotFresh, "session", runtime.ErrNotFresh, nil},
		{"not-fresh/bounded", func(t *testing.T) error { return staleRead(t, runtime.LevelBounded) },
			runtime.KindNotFresh, "bounded", runtime.ErrNotFresh, nil},
		{"not-fresh/strong", func(t *testing.T) error { return staleRead(t, runtime.LevelStrong) },
			runtime.KindNotFresh, "strong", runtime.ErrNotFresh, nil},
		{"fail-stop/disk-full", func(t *testing.T) error {
			return diskFault(t, func(ffs *vfs.FaultFS, scope string) { ffs.SetByteBudget(scope, 64) })
		}, runtime.KindFailStop, "disk-full", nil, syscall.ENOSPC},
		{"fail-stop/io-error", func(t *testing.T) error {
			return diskFault(t, func(ffs *vfs.FaultFS, scope string) { ffs.FailSyncs(scope) })
		}, runtime.KindFailStop, "io-error", nil, syscall.EIO},
		{"killed/write", func(t *testing.T) error {
			c := rejectionCluster(t, nil)
			if err := c.Kill(1); err != nil {
				t.Fatal(err)
			}
			_, err := c.Write(1, "k", []byte("v"))
			return err
		}, runtime.KindFailStop, "killed", nil, nil},
		{"killed/read", func(t *testing.T) error {
			c := rejectionCluster(t, nil)
			if err := c.Kill(1); err != nil {
				t.Fatal(err)
			}
			_, _, err := c.Read(1, "k")
			return err
		}, runtime.KindFailStop, "killed", nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.reject(t)
			var rej *runtime.Rejection
			if !errors.As(err, &rej) {
				t.Fatalf("path returned %v (%T), want a *runtime.Rejection", err, err)
			}
			if rej.Kind != tc.kind || rej.Reason != tc.reason {
				t.Errorf("rejected as %v/%s, want %v/%s", rej.Kind, rej.Reason, tc.kind, tc.reason)
			}
			for _, s := range []error{runtime.ErrOverload, runtime.ErrNotFresh} {
				if got, want := errors.Is(err, s), s == tc.sentinel; got != want {
					t.Errorf("errors.Is(err, %v) = %t, want %t", s, got, want)
				}
			}
			retryable := tc.kind != runtime.KindFailStop
			if (rej.RetryAfter > 0) != retryable || rej.RetryAfter > time.Second {
				t.Errorf("RetryAfter = %v on a %v rejection", rej.RetryAfter, rej.Kind)
			}
			if tc.cause != nil && !errors.Is(err, tc.cause) {
				t.Errorf("cause %v not reachable through %v", tc.cause, err)
			}
			if tc.cause == nil && rej.Cause != nil {
				t.Errorf("unexpected cause %v", rej.Cause)
			}

			// One write and one read against a client that always answers
			// with this rejection: each spends its whole retry budget when
			// the kind is retryable, none otherwise.
			const budget = 2
			for _, readFrac := range []float64{0, 1} {
				res := workload.Run(context.Background(), workload.Config{
					Workers: 1, Ops: 1, ReadFraction: readFrac, RetryBudget: budget, RetryBase: time.Millisecond,
				}, func() workload.Client { return rejecting{err} })
				want := 0
				if retryable {
					want = budget
				}
				if res.Retries != want || res.Errors != 1 {
					t.Errorf("workload spent %d retries (%d errors) on a %v rejection, want %d (1)",
						res.Retries, res.Errors, rej.Kind, want)
				}
			}
		})
	}
}
