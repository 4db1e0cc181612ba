package workload

import (
	"context"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/store"
)

func TestLeveledMixSplitsAcrossLevels(t *testing.T) {
	target := newFakeTarget()
	res := Run(context.Background(), Config{
		Workers: 4, Ops: 2000, ReadFraction: 0.8, Seed: 5,
		SessionReads: 0.3, BoundedReads: 0.2, StrongReads: 0.1,
	}, target.open)

	if target.opened != 4 {
		t.Fatalf("opened %d clients, want one per worker (4)", target.opened)
	}
	total := 0
	for lvl := runtime.Level(0); int(lvl) < runtime.NumLevels; lvl++ {
		total += res.ReadsByLevel[lvl]
		if res.ReadsByLevel[lvl] == 0 || target.reads[lvl] != res.ReadsByLevel[lvl] {
			t.Errorf("level %v: result counts %d reads, the target served %d", lvl, res.ReadsByLevel[lvl], target.reads[lvl])
		}
		if got := res.ReadLatencyAt(lvl).N(); got != res.ReadsByLevel[lvl] {
			t.Errorf("level %v: %d latency samples for %d reads", lvl, got, res.ReadsByLevel[lvl])
		}
	}
	if total != res.Reads {
		t.Errorf("per-level reads sum to %d, want Reads=%d", total, res.Reads)
	}
	// The mix roughly follows the configured fractions (generous bounds —
	// the draw is per-op random).
	frac := float64(res.ReadsByLevel[runtime.LevelSession]) / float64(res.Reads)
	if frac < 0.15 || frac > 0.45 {
		t.Errorf("session read fraction %.2f far from configured 0.3", frac)
	}
}

// TestReadPercentilesSplitPerLevel is the regression test for the
// read-percentile lumping fix: a mixed run whose session reads are slow
// must show that slowness in the session sample, not smeared into the
// eventual sample.
func TestReadPercentilesSplitPerLevel(t *testing.T) {
	target := newFakeTarget()
	target.delay[runtime.LevelSession] = 3 * time.Millisecond
	res := Run(context.Background(), Config{
		Workers: 4, Ops: 800, ReadFraction: 0.9, Seed: 7,
		SessionReads: 0.5,
	}, target.open)

	sess := res.ReadLatencyAt(runtime.LevelSession)
	ev := res.ReadLatencyAt(runtime.LevelEventual)
	if sess.N() == 0 || ev.N() == 0 {
		t.Fatalf("mixed run issued (%d session, %d eventual) reads", sess.N(), ev.N())
	}
	if sess.Median() < 2.5 {
		t.Errorf("session median %.3fms does not reflect the 3ms wait", sess.Median())
	}
	if ev.Median() > 1.0 {
		t.Errorf("eventual median %.3fms polluted by session waits", ev.Median())
	}
	// The aggregate lumps both — precisely why the split exists.
	if agg := res.ReadLatency.N(); agg != sess.N()+ev.N() {
		t.Errorf("aggregate holds %d samples, want %d", agg, sess.N()+ev.N())
	}
}

// TestUnleveledMixIsEventual: a config that asks for no leveled reads
// issues every read at the eventual level.
func TestUnleveledMixIsEventual(t *testing.T) {
	target := newFakeTarget()
	res := Run(context.Background(), Config{
		Workers: 2, Ops: 400, ReadFraction: 0.5, Seed: 9,
	}, target.open)
	if res.Errors != 0 {
		t.Fatalf("plain run errored %d times", res.Errors)
	}
	if res.ReadsByLevel[runtime.LevelEventual] != res.Reads || target.reads[runtime.LevelEventual] != res.Reads {
		t.Errorf("plain run issued non-eventual reads: %v (target saw %v)", res.ReadsByLevel, target.reads)
	}
}

func TestProgressCountsReadsByLevel(t *testing.T) {
	target := newFakeTarget()
	var prog Progress
	res := Run(context.Background(), Config{
		Workers: 2, Ops: 600, ReadFraction: 0.8, Seed: 11,
		SessionReads: 0.4, Progress: &prog,
	}, target.open)

	var sum int64
	for lvl := runtime.Level(0); int(lvl) < runtime.NumLevels; lvl++ {
		got := prog.ReadsByLevel[lvl].Load()
		if int(got) != res.ReadsByLevel[lvl] {
			t.Errorf("level %v: progress %d != result %d", lvl, got, res.ReadsByLevel[lvl])
		}
		sum += got
	}
	if sum != prog.Reads.Load() {
		t.Errorf("per-level progress sums to %d, want Reads=%d", sum, prog.Reads.Load())
	}
}

// notFreshFake sheds the first session read of every key with a not-fresh
// rejection, proving read retries flow through the same budget as write
// sheds.
type notFreshFake struct {
	*fakeTarget
	pending map[string]int
}

func (f *notFreshFake) open() Client { return f }

func (f *notFreshFake) ReadVersioned(key string, lvl runtime.Level) (store.Versioned, bool, error) {
	f.pending[key]++
	if f.pending[key] == 1 && lvl == runtime.LevelSession {
		return store.Versioned{}, false, &runtime.Rejection{Kind: runtime.KindNotFresh, RetryAfter: time.Millisecond}
	}
	return f.fakeTarget.ReadVersioned(key, lvl)
}

func TestNotFreshReadsRetry(t *testing.T) {
	target := &notFreshFake{fakeTarget: newFakeTarget(), pending: make(map[string]int)}
	res := Run(context.Background(), Config{
		Workers: 1, Ops: 50, ReadFraction: 1, Keys: 8, Seed: 13,
		SessionReads: 1, RetryBudget: 2, RetryBase: time.Millisecond,
	}, target.open)
	if res.Sheds == 0 || res.Retries == 0 {
		t.Fatalf("hinted read rejections produced (%d sheds, %d retries), want both > 0", res.Sheds, res.Retries)
	}
	if res.Errors != 0 {
		t.Errorf("retryable sheds leaked %d errors", res.Errors)
	}
}
