package workload

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/store"
)

// fakeTarget is an in-memory keyspace recording which keys were touched;
// every worker's Client is the one shared fake (see open). Reads carry a
// per-level artificial delay — the fixture for the per-level latency
// split.
type fakeTarget struct {
	mu     sync.Mutex
	kv     map[string][]byte
	opened int
	writes int
	reads  [runtime.NumLevels]int
	delay  [runtime.NumLevels]time.Duration
	fail   bool
}

func newFakeTarget() *fakeTarget { return &fakeTarget{kv: make(map[string][]byte)} }

// open is the fake's Run argument.
func (f *fakeTarget) open() Client {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.opened++
	return f
}

func (f *fakeTarget) Write(key string, value []byte) (shard.Receipt, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return shard.Receipt{}, errors.New("injected failure")
	}
	f.kv[key] = append([]byte(nil), value...)
	f.writes++
	return shard.Receipt{}, nil
}

func (f *fakeTarget) ReadVersioned(key string, lvl runtime.Level) (store.Versioned, bool, error) {
	f.mu.Lock()
	if f.fail {
		f.mu.Unlock()
		return store.Versioned{}, false, errors.New("injected failure")
	}
	d := f.delay[lvl]
	f.reads[lvl]++
	v, ok := f.kv[key]
	f.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	return store.Versioned{Value: v}, ok, nil
}

func TestRunCompletesOpBudget(t *testing.T) {
	target := newFakeTarget()
	cfg := Config{Workers: 4, Ops: 2000, ReadFraction: 0.75, Keys: 128, Seed: 42}
	res := Run(context.Background(), cfg, target.open)
	if res.Ops != 2000 {
		t.Fatalf("completed %d ops, want 2000", res.Ops)
	}
	if res.Ops != res.Reads+res.Writes {
		t.Fatalf("ops %d != reads %d + writes %d", res.Ops, res.Reads, res.Writes)
	}
	if res.Errors != 0 {
		t.Fatalf("unexpected errors: %d", res.Errors)
	}
	// The read mix should be near the configured fraction.
	frac := float64(res.Reads) / float64(res.Ops)
	if frac < 0.65 || frac > 0.85 {
		t.Errorf("read fraction %.3f far from configured 0.75", frac)
	}
	if res.ReadLatency.N() != res.Reads || res.WriteLatency.N() != res.Writes {
		t.Errorf("latency sample sizes (%d, %d) don't match op counts (%d, %d)",
			res.ReadLatency.N(), res.WriteLatency.N(), res.Reads, res.Writes)
	}
	if res.OpsPerSec() <= 0 {
		t.Errorf("non-positive throughput %f", res.OpsPerSec())
	}
	if p50, p99 := res.WriteLatency.Median(), res.WriteLatency.Percentile(99); p99 < p50 {
		t.Errorf("p99 %.4f below p50 %.4f", p99, p50)
	}
	if target.writes != res.Writes {
		t.Errorf("target saw %d writes, result says %d", target.writes, res.Writes)
	}
}

func TestRunZipfSkewsKeys(t *testing.T) {
	target := newFakeTarget()
	cfg := Config{Workers: 2, Ops: 4000, ReadFraction: 0, Keys: 512, Dist: Zipf, ZipfS: 1.4, Seed: 7}
	res := Run(context.Background(), cfg, target.open)
	if res.Writes != 4000 {
		t.Fatalf("writes %d, want 4000", res.Writes)
	}
	// Zipf concentrates mass on low key indices: far fewer distinct keys
	// than ops, and the hottest key must exist.
	if len(target.kv) >= 400 {
		t.Errorf("zipf touched %d distinct keys out of 512 — not skewed", len(target.kv))
	}
	if _, ok := target.kv[Key(0)]; !ok {
		t.Error("hottest zipf key never written")
	}
}

func TestRunUniformSpreadsKeys(t *testing.T) {
	target := newFakeTarget()
	cfg := Config{Workers: 2, Ops: 4000, ReadFraction: 0, Keys: 256, Dist: Uniform, Seed: 7}
	Run(context.Background(), cfg, target.open)
	if len(target.kv) < 200 {
		t.Errorf("uniform touched only %d distinct keys out of 256", len(target.kv))
	}
}

func TestRunDeterministicOpStream(t *testing.T) {
	a, b := newFakeTarget(), newFakeTarget()
	cfg := Config{Workers: 1, Ops: 500, ReadFraction: 0.5, Keys: 64, Seed: 99}
	ra := Run(context.Background(), cfg, a.open)
	rb := Run(context.Background(), cfg, b.open)
	if ra.Reads != rb.Reads || ra.Writes != rb.Writes {
		t.Errorf("same seed produced different mixes: (%d,%d) vs (%d,%d)",
			ra.Reads, ra.Writes, rb.Reads, rb.Writes)
	}
	if len(a.kv) != len(b.kv) {
		t.Errorf("same seed touched different key sets: %d vs %d", len(a.kv), len(b.kv))
	}
}

func TestRunCountsErrors(t *testing.T) {
	target := newFakeTarget()
	target.fail = true
	res := Run(context.Background(), Config{Workers: 2, Ops: 100, Seed: 1}, target.open)
	if res.Errors != 100 {
		t.Errorf("errors %d, want all 100", res.Errors)
	}
	if res.Ops != 0 {
		t.Errorf("ops %d, want 0 when every op fails", res.Ops)
	}
}

func TestRunHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Run(ctx, Config{Workers: 2, Ops: 1 << 30, Seed: 1}, newFakeTarget().open)
	if res.Ops > 2 {
		t.Errorf("cancelled run still completed %d ops", res.Ops)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Workers <= 0 || c.Ops <= 0 || c.Keys <= 0 || c.ValueBytes <= 0 || c.ZipfS <= 1 {
		t.Errorf("defaults incomplete: %+v", c)
	}
	if c.ReadFraction != 0 {
		t.Errorf("zero read fraction overridden to %f; 0 means write-only", c.ReadFraction)
	}
	if d := (Config{ReadFraction: -1}).withDefaults(); d.ReadFraction != 0.9 {
		t.Errorf("negative read fraction defaulted to %f, want 0.9", d.ReadFraction)
	}
}

func TestKeyDistString(t *testing.T) {
	if Zipf.String() != "zipf" || Uniform.String() != "uniform" {
		t.Error("KeyDist names wrong")
	}
	if KeyDist(9).String() == "" {
		t.Error("unknown KeyDist has empty name")
	}
}

func TestResultString(t *testing.T) {
	res := Run(context.Background(), Config{Workers: 1, Ops: 50, Seed: 1}, newFakeTarget().open)
	if s := res.String(); s == "" {
		t.Error("empty result string")
	}
	if res.Elapsed <= 0 || res.Elapsed > time.Minute {
		t.Errorf("implausible elapsed %v", res.Elapsed)
	}
}

// shedTarget rejects the first rejects write attempts with an overload
// rejection carrying a retry-after hint, then admits. Reads always
// succeed.
type shedTarget struct {
	mu       sync.Mutex
	rejects  int // writes still to reject, counted down across ops
	hint     time.Duration
	attempts int
	admitted int
}

func (s *shedTarget) open() Client { return s }

func (s *shedTarget) Write(key string, value []byte) (shard.Receipt, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempts++
	if s.rejects > 0 {
		s.rejects--
		return shard.Receipt{}, &runtime.Rejection{Kind: runtime.KindOverload, RetryAfter: s.hint}
	}
	s.admitted++
	return shard.Receipt{}, nil
}

func (s *shedTarget) ReadVersioned(string, runtime.Level) (store.Versioned, bool, error) {
	return store.Versioned{}, false, nil
}

// TestOpenLoopPacing checks the open-loop schedule: ops are due at a
// fixed rate regardless of worker count, so the run's elapsed time is
// pinned by the arrival schedule, not by how fast the target answers.
func TestOpenLoopPacing(t *testing.T) {
	target := newFakeTarget()
	cfg := Config{
		Workers: 8, Ops: 200, ReadFraction: 0.5, Keys: 64, Seed: 7,
		OpenLoop: true, ArrivalRate: 1000, // 200 ops at 1k/s = 200ms
	}
	start := time.Now()
	res := Run(context.Background(), cfg, target.open)
	elapsed := time.Since(start)
	if res.Ops != 200 {
		t.Fatalf("completed %d ops, want 200", res.Ops)
	}
	if elapsed < 150*time.Millisecond {
		t.Errorf("open-loop run finished in %v; the 200ms arrival schedule was not honoured", elapsed)
	}
	if res.Errors != 0 || res.Sheds != 0 || res.Retries != 0 {
		t.Errorf("clean target produced errors=%d sheds=%d retries=%d", res.Errors, res.Sheds, res.Retries)
	}
}

// TestOpenLoopDeterministicOpStream pins the open-loop key/op sequence to
// the seed: pacing changes timing, never the operation stream.
func TestOpenLoopDeterministicOpStream(t *testing.T) {
	run := func() (int, int) {
		target := newFakeTarget()
		res := Run(context.Background(), Config{
			Workers: 1, Ops: 300, ReadFraction: 0.5, Keys: 32, Seed: 9,
			OpenLoop: true, ArrivalRate: 1e6,
		}, target.open)
		return res.Reads, res.Writes
	}
	r1, w1 := run()
	r2, w2 := run()
	if r1 != r2 || w1 != w2 {
		t.Fatalf("two open-loop runs with one seed diverged: %d/%d vs %d/%d reads/writes", r1, w1, r2, w2)
	}
}

// TestRetryBudgetRecovers checks the retry policy end to end: a shed
// write with budget left is retried after the server's hint and counts as
// one completed op (not an error) once admitted, with sheds and retries
// both reported.
func TestRetryBudgetRecovers(t *testing.T) {
	target := &shedTarget{rejects: 1, hint: time.Millisecond}
	cfg := Config{Workers: 1, Ops: 10, ReadFraction: 0, Keys: 8, Seed: 3, RetryBudget: 2}
	res := Run(context.Background(), cfg, target.open)
	if res.Errors != 0 {
		t.Fatalf("retried writes still surfaced %d errors", res.Errors)
	}
	if res.Writes != 10 {
		t.Fatalf("completed %d writes, want 10", res.Writes)
	}
	if res.Sheds != 1 || res.Retries != 1 {
		t.Errorf("sheds=%d retries=%d, want 1/1 — one rejection, one successful retry", res.Sheds, res.Retries)
	}
	if target.admitted != 10 {
		t.Errorf("target admitted %d writes, want 10", target.admitted)
	}
}

// TestRetryBudgetExhausted counts a write that stays shed past its budget
// as one error, with every attempt recorded as a shed.
func TestRetryBudgetExhausted(t *testing.T) {
	target := &shedTarget{rejects: 1 << 30, hint: time.Microsecond}
	cfg := Config{Workers: 1, Ops: 5, ReadFraction: 0, Keys: 8, Seed: 3, RetryBudget: 2}
	res := Run(context.Background(), cfg, target.open)
	if res.Errors != 5 {
		t.Fatalf("got %d errors, want all 5 writes to fail after budget exhaustion", res.Errors)
	}
	if res.Sheds != 15 {
		t.Errorf("sheds=%d, want 15 (3 attempts per write, all shed)", res.Sheds)
	}
	if res.Retries != 10 {
		t.Errorf("retries=%d, want 10 (2 retries per write)", res.Retries)
	}
}

// TestNonOverloadErrorsNeverRetry pins the policy's scope: only
// rejections carrying a retry-after hint are retried; a plain failure is
// terminal even with budget available. (That the runtime's own rejections
// carry one exactly when retryable is runtime's TestRejectionTable.)
func TestNonOverloadErrorsNeverRetry(t *testing.T) {
	target := newFakeTarget()
	target.fail = true
	cfg := Config{Workers: 1, Ops: 5, ReadFraction: 0, Keys: 8, Seed: 3, RetryBudget: 5}
	res := Run(context.Background(), cfg, target.open)
	if res.Errors != 5 {
		t.Fatalf("got %d errors, want 5", res.Errors)
	}
	if res.Sheds != 0 || res.Retries != 0 {
		t.Errorf("plain failures recorded sheds=%d retries=%d, want 0/0", res.Sheds, res.Retries)
	}
	if target.writes != 0 {
		t.Errorf("failing target admitted %d writes", target.writes)
	}
}
