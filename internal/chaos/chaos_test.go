package chaos

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

func TestNamedScenariosValidate(t *testing.T) {
	for _, name := range Names() {
		for _, scale := range []float64{1, 0.5} {
			sc, err := Named(name, 42, scale)
			if err != nil {
				t.Fatalf("Named(%s, scale %g): %v", name, scale, err)
			}
			if err := sc.withDefaults().Validate(); err != nil {
				t.Errorf("%s (scale %g) does not validate: %v", name, scale, err)
			}
			if sc.Description == "" {
				t.Errorf("%s has no description", name)
			}
		}
	}
	if _, err := Named("no-such-scenario", 1, 1); err == nil {
		t.Error("unknown scenario name should error")
	}
}

func TestNamedScheduleDeterministic(t *testing.T) {
	for _, name := range Names() {
		a, _ := Named(name, 42, 0.5)
		b, _ := Named(name, 42, 0.5)
		if a.Schedule() != b.Schedule() {
			t.Errorf("%s: same (seed, scale) produced different schedules", name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Nodes: 6, Duration: 2 * time.Second, Quiesces: 2, Faults: 5}
	a := Generate(77, cfg)
	b := Generate(77, cfg)
	if a.Schedule() != b.Schedule() {
		t.Fatalf("same seed produced different schedules:\n%s\nvs\n%s", a.Schedule(), b.Schedule())
	}
	c := Generate(78, cfg)
	if a.Schedule() == c.Schedule() {
		t.Error("different seeds produced identical schedules")
	}
}

func TestGenerateValidates(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		sc := Generate(seed, GenConfig{Nodes: 6, Faults: 6, Quiesces: 2})
		if err := sc.withDefaults().Validate(); err != nil {
			t.Errorf("cluster seed %d: generated scenario invalid: %v\n%s", seed, err, sc.Schedule())
		}
		sc = Generate(seed, GenConfig{Nodes: 4, Shards: 3, Faults: 6, Quiesces: 2})
		if err := sc.withDefaults().Validate(); err != nil {
			t.Errorf("sharded seed %d: generated scenario invalid: %v\n%s", seed, err, sc.Schedule())
		}
	}
}

func TestValidateRejects(t *testing.T) {
	base := Scenario{Nodes: 4, Shards: 1, Topology: "ring", Seed: 1}
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"out-of-order events", func(s *Scenario) {
			s.Events = []Event{{At: time.Second, Kind: EvHeal}, {At: 0, Kind: EvHeal}}
		}},
		{"empty partition side", func(s *Scenario) {
			s.Events = []Event{{Kind: EvPartition, Nodes: []NodeID{0}}}
		}},
		{"kill without targets", func(s *Scenario) {
			s.Events = []Event{{Kind: EvKill}}
		}},
		{"loss rate 1", func(s *Scenario) {
			s.Events = []Event{{Kind: EvSetLoss, Rate: 1}}
		}},
		{"probe on sharded", func(s *Scenario) {
			s.Shards = 2
			s.Events = []Event{{Kind: EvProbe}}
		}},
		{"add-shard on cluster", func(s *Scenario) {
			s.Events = []Event{{Kind: EvAddShard, Shard: "x"}}
		}},
		{"sharded kill without shard", func(s *Scenario) {
			s.Shards = 2
			s.Events = []Event{{Kind: EvKill, Nodes: []NodeID{0}}}
		}},
		{"replica out of range", func(s *Scenario) {
			s.Events = []Event{{Kind: EvKill, Nodes: []NodeID{9}}}
		}},
		{"bad topology", func(s *Scenario) { s.Topology = "hypercube" }},
		{"field size mismatch", func(s *Scenario) { s.Field = []float64{1, 2} }},
	}
	for _, tc := range cases {
		sc := base
		tc.mut(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid scenario", tc.name)
		}
	}
}

// fakeSys is a system under test whose one client acknowledges every write
// at a fixed location.
type fakeSys struct {
	mu   sync.Mutex
	loc  ackLoc
	fail bool
}

func (f *fakeSys) open() workload.Client { return f }

func (f *fakeSys) Write(string, []byte) (shard.Receipt, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return shard.Receipt{}, errors.New("down")
	}
	return shard.Receipt{Shard: f.loc.shard, Node: f.loc.node}, nil
}

func (f *fakeSys) ReadVersioned(string, runtime.Level) (store.Versioned, bool, error) {
	return store.Versioned{}, false, nil
}

func (f *fakeSys) setLoc(loc ackLoc) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loc = loc
}

func TestTrackerDurabilityClassification(t *testing.T) {
	sys := &fakeSys{loc: ackLoc{node: 0}}
	tr := newTracker(sys.open)
	cl := tr.client()

	// k1 acked at n0 and sealed at a converged quiesce: loss is a bug.
	if _, err := cl.Write("k1", []byte("a")); err != nil {
		t.Fatal(err)
	}
	tr.seal(nil)

	// k2 acked at n1, which then lost state: at-risk, presence optional.
	sys.setLoc(ackLoc{node: 1})
	if _, err := cl.Write("k2", []byte("b")); err != nil {
		t.Fatal(err)
	}
	tr.markLost(ackLoc{node: 1})

	// k3 acked during a reshard window: at-risk.
	tr.beginReshard()
	if _, err := cl.Write("k3", []byte("c")); err != nil {
		t.Fatal(err)
	}
	tr.endReshard()

	// k4 acked at a live replica, unsealed: still required (no state loss).
	sys.setLoc(ackLoc{node: 2})
	if _, err := cl.Write("k4", []byte("d")); err != nil {
		t.Fatal(err)
	}

	present := map[string]uint64{
		"k1": hashBytes([]byte("a")),
		"k4": hashBytes([]byte("d")),
		// k2, k3 lost — allowed, both at-risk.
	}
	lookup := func(key string) (uint64, bool) {
		h, ok := present[key]
		return h, ok
	}
	d := tr.checkDurability(lookup)
	if !d.ok() {
		t.Fatalf("expected clean durability, got %+v", d)
	}
	if d.required != 2 || d.atRiskOnly != 2 {
		t.Errorf("required=%d atRiskOnly=%d, want 2 and 2", d.required, d.atRiskOnly)
	}

	// Losing the sealed key is a violation.
	delete(present, "k1")
	if d := tr.checkDurability(lookup); d.missing != 1 {
		t.Errorf("missing=%d after dropping sealed key, want 1", d.missing)
	}

	// Converging to a value nobody acked is a violation.
	present["k1"] = hashBytes([]byte("never-acked"))
	if d := tr.checkDurability(lookup); d.wrongValue != 1 {
		t.Errorf("wrongValue=%d for fabricated value, want 1", d.wrongValue)
	}
}

func TestTrackerSealSkipsDeadAckers(t *testing.T) {
	sys := &fakeSys{loc: ackLoc{node: 3}}
	tr := newTracker(sys.open)
	cl := tr.client()
	if _, err := cl.Write("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// n3 is dead at the quiesce: convergence among the living says nothing
	// about its unreplicated acks, so the write must stay pending...
	tr.seal(map[ackLoc]bool{{node: 3}: true})
	tr.markLost(ackLoc{node: 3})
	d := tr.checkDurability(func(string) (uint64, bool) { return 0, false })
	if !d.ok() || d.atRiskOnly != 1 {
		t.Errorf("write sealed despite dead acker: %+v", d)
	}
	// ...whereas with the acker alive it seals.
	tr2 := newTracker(sys.open)
	if _, err := tr2.client().Write("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	tr2.seal(nil)
	tr2.markLost(ackLoc{node: 3})
	if d := tr2.checkDurability(func(string) (uint64, bool) { return 0, false }); d.missing != 1 {
		t.Errorf("sealed write not required after acker death: %+v", d)
	}
}

func TestTrackerPauseDrainsAndBlocks(t *testing.T) {
	sys := &fakeSys{}
	tr := newTracker(sys.open)
	cl := tr.client()
	tr.Pause()
	done := make(chan struct{})
	go func() {
		cl.Write("k", []byte("v"))
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("write proceeded while paused")
	case <-time.After(20 * time.Millisecond):
	}
	tr.Resume()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("write never resumed")
	}
}

func TestErrorsOnUnknownShard(t *testing.T) {
	sc := Scenario{
		Nodes:  4,
		Shards: 2,
		Seed:   1,
		Events: []Event{{Kind: EvRemoveShard, Shard: "no-such-shard"}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := Run(ctx, sc); err == nil {
		t.Fatal("removing an unknown shard should fail the run")
	}
}

// The short end-to-end table: every run must pass all invariants, and the
// (schedule, verdict) pair must be byte-identical across repeat runs.
func TestRunScenariosDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("live chaos runs in -short mode")
	}
	cases := []struct {
		name  string
		seed  int64
		scale float64
	}{
		{"split-brain", 11, 0.3},
		{"rolling-restart", 12, 0.3},
		{"reshard-under-fire", 13, 0.4},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sc, err := Named(tc.name, tc.seed, tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			out := func() string {
				ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
				defer cancel()
				rep, err := Run(ctx, sc)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if !rep.Passed() {
					t.Fatalf("invariants failed:\n%s%s", rep.Verdict(), rep.Observations())
				}
				return sc.Schedule() + rep.Verdict()
			}
			first, second := out(), out()
			if first != second {
				t.Errorf("same seed produced different schedule+verdict:\n%s\nvs\n%s", first, second)
			}
			if !strings.Contains(first, "final/durability") {
				t.Errorf("verdict missing durability check:\n%s", first)
			}
		})
	}
}

func TestRunGeneratedScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("live chaos runs in -short mode")
	}
	sc := Generate(5, GenConfig{Nodes: 6, Duration: 1500 * time.Millisecond, Faults: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	rep, err := Run(ctx, sc)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, sc.Schedule())
	}
	if !rep.Passed() {
		t.Fatalf("generated scenario failed invariants:\n%s%s%s", sc.Schedule(), rep.Verdict(), rep.Observations())
	}
}

func TestEventStringFormats(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{At: 300 * time.Millisecond, Kind: EvPartition, Nodes: []NodeID{0, 1}, Peers: []NodeID{2, 3}},
			"+300ms    partition [n0 n1] | [n2 n3]"},
		{Event{At: time.Second, Kind: EvSetLoss, Rate: 0.25}, "+1s       set-loss 0.25"},
		{Event{At: time.Second, Kind: EvSetLatency, Latency: time.Millisecond, Jitter: 4 * time.Millisecond},
			"+1s       set-latency 1ms jitter 4ms"},
		{Event{At: 2 * time.Second, Kind: EvKill, Shard: "shard1", Nodes: []NodeID{3}},
			"+2s       kill shard1 [n3]"},
		{Event{At: 0, Kind: EvDemandFlip}, "+0s       demand-flip"},
	}
	for _, tc := range cases {
		if got := tc.ev.String(); got != tc.want {
			t.Errorf("Event.String() = %q, want %q", got, tc.want)
		}
	}
}

func TestRunCrashRecoverDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("live chaos runs in -short mode")
	}
	sc, err := Named("crash-recover-disk", 21, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Durable {
		t.Fatal("crash-recover-disk must be durable")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	rep, err := Run(ctx, sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.Passed() {
		t.Fatalf("invariants failed:\n%s%s", rep.Verdict(), rep.Observations())
	}
	// The durable scenario's headline claim: the at-risk classification is
	// empty — every acked write truly survived the crashes.
	if !strings.Contains(rep.Verdict(), "final/no-at-risk") {
		t.Fatalf("verdict missing the no-at-risk check:\n%s", rep.Verdict())
	}
	if rep.AtRisk != 0 {
		t.Fatalf("%d acked writes classified at-risk on a durable run", rep.AtRisk)
	}
}

func TestGenerateDurable(t *testing.T) {
	sc := Generate(9, GenConfig{Nodes: 6, Durable: true})
	if !sc.Durable {
		t.Fatal("generated scenario not durable")
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	sawDisk := false
	for _, e := range sc.Events {
		switch e.Kind {
		case EvRestart, EvRestartPreserve:
			t.Fatalf("durable schedule contains %v", e.Kind)
		case EvRestartDisk:
			sawDisk = true
		}
	}
	if !sawDisk {
		t.Skip("schedule drew no restarts for this seed")
	}
}

func TestRestartDiskRequiresDurable(t *testing.T) {
	sc := Scenario{
		Nodes: 4,
		Events: []Event{
			{Kind: EvKill, Nodes: []NodeID{0}},
			{Kind: EvRestartDisk, Nodes: []NodeID{0}},
		},
	}
	if err := sc.withDefaults().Validate(); err == nil {
		t.Fatal("restart-disk validated without Durable")
	}
	sc.Durable = true
	if err := sc.withDefaults().Validate(); err != nil {
		t.Fatalf("durable restart-disk rejected: %v", err)
	}
}

// TestMetricsConsistencyFaultFree is the satellite acceptance check: on a
// fault-free schedule the /metrics acked-write counter must equal the
// tracker's independent count exactly.
func TestMetricsConsistencyFaultFree(t *testing.T) {
	if testing.Short() {
		t.Skip("live chaos runs in -short mode")
	}
	sc := Scenario{
		Name:  "obs-fault-free",
		Seed:  21,
		Nodes: 5,
		Events: []Event{
			{At: 200 * time.Millisecond, Kind: EvQuiesce},
		},
		Obs: obs.NewRegistry(),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := Run(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("fault-free obs scenario failed:\n%s%s", rep.Verdict(), rep.Observations())
	}
	if !strings.Contains(rep.Verdict(), "final/metrics-consistency") {
		t.Fatalf("verdict missing the metrics-consistency check:\n%s", rep.Verdict())
	}
	// The scraped registry is live after the run: writes happened, so the
	// headline counter cannot be zero.
	if sc.Obs.Total("repro_client_writes_acked_total") == 0 {
		t.Error("registry recorded no acked writes")
	}
}

// TestMetricsConsistencyUnderFaults runs the same cross-check through a
// schedule with partitions and retries: client-plane retries must not
// double-count acks on either side of the comparison.
func TestMetricsConsistencyUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("live chaos runs in -short mode")
	}
	sc, err := Named("split-brain", 33, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sc.Obs = obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	rep, err := Run(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("split-brain obs scenario failed:\n%s%s", rep.Verdict(), rep.Observations())
	}
	if !strings.Contains(rep.Verdict(), "final/metrics-consistency") {
		t.Fatalf("verdict missing the metrics-consistency check:\n%s", rep.Verdict())
	}
}
