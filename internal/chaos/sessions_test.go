package chaos

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/vclock"
	"repro/internal/workload"
)

func TestSessionScenariosArmed(t *testing.T) {
	armed := map[string]bool{"split-brain": true, "crash-recover-disk": true, "flash-crowd": true}
	for _, name := range Names() {
		sc, err := Named(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Sessions != armed[name] {
			t.Errorf("%s: Sessions = %t, want %t", name, sc.Sessions, armed[name])
		}
		if sc.Sessions {
			load := sc.withDefaults().Load
			if load.SessionReads <= 0 {
				t.Errorf("%s: session-armed scenario has no session read mix", name)
			}
		}
	}
}

func TestValidateRejectsSessionEmptyRestart(t *testing.T) {
	sc := Scenario{
		Nodes:    4,
		Topology: "ring",
		Sessions: true,
		Events: []Event{
			{At: 0, Kind: EvKill, Nodes: []NodeID{1}},
			{At: time.Second, Kind: EvRestart, Nodes: []NodeID{1}},
		},
	}
	if err := sc.Validate(); err == nil {
		t.Fatal("empty-state restart accepted in a session-armed scenario")
	}
	// The durable recovery path stays legal.
	sc.Durable = true
	sc.Events[1].Kind = EvRestartDisk
	if err := sc.Validate(); err != nil {
		t.Fatalf("restart-disk rejected in a session-armed scenario: %v", err)
	}
}

// scriptedSess is a client of the system under test whose reads replay a
// scripted version sequence — the fixture proving the oracle actually
// catches violations.
type scriptedSess struct {
	clock uint64
	reads []func() (store.Versioned, bool)
}

func (s *scriptedSess) open() workload.Client { return s }

func (s *scriptedSess) Write(string, []byte) (shard.Receipt, error) {
	s.clock++
	return shard.Receipt{TS: vclock.Timestamp{Node: 0, Seq: s.clock}, Clock: s.clock}, nil
}

func (s *scriptedSess) ReadVersioned(string, runtime.Level) (store.Versioned, bool, error) {
	next := s.reads[0]
	s.reads = s.reads[1:]
	v, ok := next()
	return v, ok, nil
}

func served(clock uint64) func() (store.Versioned, bool) {
	return func() (store.Versioned, bool) {
		return store.Versioned{Value: []byte("v"), TS: vclock.Timestamp{Node: 1, Seq: clock}, Clock: clock}, true
	}
}

func miss() (store.Versioned, bool) { return store.Versioned{}, false }

func TestSessionOracleDetectsViolations(t *testing.T) {
	sess := &scriptedSess{reads: []func() (store.Versioned, bool){
		served(1), // fresh: establishes the floor at the write's clock anyway
		miss,      // read-your-writes violation: the session wrote the key
		served(0), // monotonic-reads violation: below the floor
		served(5), // recovery: at/above floor, ratchets it
	}}
	tr := newTracker(sess.open)
	tr.oracle = newSessionOracle()

	ws := tr.client()
	if _, err := ws.Write("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := ws.ReadVersioned("k", runtime.LevelSession); err != nil {
			t.Fatal(err)
		}
	}
	_, reads, violations, samples := tr.oracle.stats()
	if reads != 4 {
		t.Errorf("oracle checked %d reads, want 4", reads)
	}
	if violations != 2 {
		t.Fatalf("oracle counted %d violations, want 2 (%v)", violations, samples)
	}
	if !strings.Contains(samples[0], "read-your-writes") || !strings.Contains(samples[1], "monotonic-reads") {
		t.Errorf("violation details miss their guarantee names: %v", samples)
	}
}

func TestSessionOracleIgnoresUncheckedLevels(t *testing.T) {
	// Bounded and eventual reads may serve stale by contract: a regressed
	// version at those levels must not count.
	sess := &scriptedSess{reads: []func() (store.Versioned, bool){miss, miss}}
	tr := newTracker(sess.open)
	tr.oracle = newSessionOracle()
	ws := tr.client()
	if _, err := ws.Write("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, lvl := range []runtime.Level{runtime.LevelEventual, runtime.LevelBounded} {
		if _, _, err := ws.ReadVersioned("k", lvl); err != nil {
			t.Fatal(err)
		}
	}
	if _, reads, violations, _ := tr.oracle.stats(); reads != 0 || violations != 0 {
		t.Errorf("unchecked levels entered the oracle: %d reads, %d violations", reads, violations)
	}
}

func TestTrackerSessionsDisarmedByDefault(t *testing.T) {
	// Without the oracle armed a client still books its acks for the
	// durability invariant, but even a blatant read-your-writes miss at
	// session level is nobody's business.
	sess := &scriptedSess{reads: []func() (store.Versioned, bool){miss}}
	tr := newTracker(sess.open)
	ws := tr.client()
	if _, err := ws.Write("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ws.ReadVersioned("k", runtime.LevelSession); ok || err != nil {
		t.Fatalf("scripted miss read as (%t, %v)", ok, err)
	}
	if acked, _, _ := tr.counts(); acked != 1 {
		t.Errorf("unarmed client booked %d acks, want 1", acked)
	}
	if tr.oracle != nil {
		t.Error("a fresh tracker came with the session oracle armed")
	}
}

func TestRunSessionScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("live chaos runs in -short mode")
	}
	sc, err := Named("split-brain", 21, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	rep, err := Run(ctx, sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.Passed() {
		t.Fatalf("session-armed scenario failed:\n%s%s", rep.Verdict(), rep.Observations())
	}
	if !strings.Contains(rep.Verdict(), "final/session-guarantees") {
		t.Errorf("verdict missing the session gate:\n%s", rep.Verdict())
	}
}
