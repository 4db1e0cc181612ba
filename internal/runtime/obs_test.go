package runtime

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/demand"
	"repro/internal/obs"
	"repro/internal/topology"
)

// startObsCluster builds a small observed cluster over a fresh registry.
func startObsCluster(t *testing.T, n int) (*Cluster, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	g := topology.Ring(n)
	field := make(demand.Static, n)
	for i := range field {
		field[i] = float64(i + 1)
	}
	c := New(g, field,
		WithSeed(91),
		WithSessionInterval(20*time.Millisecond),
		WithAdvertInterval(10*time.Millisecond),
		WithObs(obs.NewClusterObs(reg, n)),
	)
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c, reg
}

// TestObsWriteAccounting cross-checks the inline commit instruments and the
// polled node counters against ground truth: every acked write appears
// exactly once, and every non-origin replica records each write as either a
// propagation-lag sample or an explicit miss — nothing vanishes.
func TestObsWriteAccounting(t *testing.T) {
	const n, writes = 3, 20
	c, reg := startObsCluster(t, n)
	for i := 0; i < writes; i++ {
		origin := NodeID(i % n)
		if _, err := c.Write(origin, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if !c.WaitConverged(ctx) {
		t.Fatal("cluster did not converge")
	}

	if got := reg.Total("repro_client_writes_acked_total"); got != writes {
		t.Errorf("acked writes = %v, want %d", got, writes)
	}
	if got := reg.Total("repro_node_client_writes_total"); got != writes {
		t.Errorf("node client writes = %v, want %d", got, writes)
	}
	if got := reg.Total("repro_prop_stamps_total"); got != writes {
		t.Errorf("prop stamps = %v, want %d", got, writes)
	}
	// Each write is absorbed exactly once by each of the n-1 non-origin
	// replicas, and every absorption either measured a lag or counted a miss.
	absorbed := reg.Total("repro_node_entries_absorbed_total")
	if want := float64((n - 1) * writes); absorbed != want {
		t.Errorf("entries absorbed = %v, want %v", absorbed, want)
	}
	lag := reg.Total("repro_prop_lag_seconds")
	miss := reg.Total("repro_prop_misses_total")
	if lag+miss != absorbed {
		t.Errorf("lag samples %v + misses %v != absorbed %v", lag, miss, absorbed)
	}
	if lag == 0 {
		t.Error("no propagation-lag samples recorded")
	}
	// Commit-plane instruments: every batch observed once, each with size
	// and latency.
	batches := reg.Total("repro_commit_batches_total")
	if batches == 0 || batches > writes {
		t.Errorf("commit batches = %v, want in [1, %d]", batches, writes)
	}
	if got := reg.Total("repro_commit_batch_size"); got != batches {
		t.Errorf("batch-size samples = %v, want %v", got, batches)
	}
	if got := reg.Total("repro_commit_seconds"); got != batches {
		t.Errorf("commit-latency samples = %v, want %v", got, batches)
	}
	if got := reg.Total("repro_replicas"); got != n {
		t.Errorf("repro_replicas = %v, want %d", got, n)
	}
	// One-byte writes fit a frame: every fast update is a push, exported
	// under its own event label beside the (here unused) offers.
	var pushed, offered uint64
	for id := NodeID(0); id < n; id++ {
		pushed += c.Stats(id).FastPushesSent
		offered += c.Stats(id).FastOffersSent
	}
	if pushed < writes || offered != 0 {
		t.Errorf("fast updates: %d pushed, %d offered, want >= %d pushed, none offered", pushed, offered, writes)
	}
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < n; id++ {
		// Converged and idle: the counters no longer move between the scrape
		// and this read. Pulls an advert drew sit beside the timer sessions.
		st := c.Stats(NodeID(id))
		for _, want := range []string{
			fmt.Sprintf(`repro_node_fast_offers_total{event="pushed",replica="n%d"} %d`, id, st.FastPushesSent),
			fmt.Sprintf(`repro_node_sessions_total{replica="n%d",role="advert"} %d`, id, st.AdvertPulls),
		} {
			if !strings.Contains(text.String(), want) {
				t.Errorf("exposition lacks %q", want)
			}
		}
	}
}

// TestObsReadPathZeroAllocs pins the acceptance criterion that enabling
// observability does not put allocations (or locks) on the lock-free read
// path: the polled store counters are only evaluated at scrape time.
func TestObsReadPathZeroAllocs(t *testing.T) {
	c, _ := startObsCluster(t, 3)
	if _, err := c.Write(1, "hot", []byte("value")); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, _, err := c.Read(1, "hot"); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Read with obs enabled allocates %v objects per op, want 0", got)
	}
}

// TestObsReadAccounting pins what a read is, now that there is one read
// body: every client read the store serves — plain or leveled — counts
// exactly once in repro_store_reads_total (the strong level's cross-replica
// freshest-version probes do not), and repro_client_reads_total{level}
// counts the leveled ones by level.
func TestObsReadAccounting(t *testing.T) {
	c, reg := startObsCluster(t, 3)
	sess := c.NewSession()
	if _, err := sess.Write(1, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if _, ok, err := c.Read(1, "k"); err != nil || !ok {
			t.Fatalf("plain read = (%t, %v)", ok, err)
		}
		if _, ok, err := sess.Read(1, "k"); err != nil || !ok {
			t.Fatalf("session read = (%t, %v)", ok, err)
		}
	}
	if reads, _ := c.replicas[1].store.Load().ReadStats(); reads != 2*n {
		t.Errorf("store counted %d reads after %d plain + %d session reads, want %d", reads, n, n, 2*n)
	}
	if _, ok, err := sess.ReadLevel(1, "k", LevelStrong); err != nil || !ok {
		t.Fatalf("strong read = (%t, %v)", ok, err)
	}
	var total uint64
	for _, r := range c.replicas {
		reads, _ := r.store.Load().ReadStats()
		total += reads
	}
	if total != 2*n+1 {
		t.Errorf("stores counted %d reads cluster-wide, want %d: a strong read's probes of the other replicas were counted", total, 2*n+1)
	}
	if got := reg.Total("repro_store_reads_total"); got != 2*n+1 {
		t.Errorf("repro_store_reads_total = %v, want %d", got, 2*n+1)
	}
	if got := reg.Total("repro_client_reads_total"); got != n+1 {
		t.Errorf("repro_client_reads_total = %v, want the %d leveled reads", got, n+1)
	}
}

// TestObsScrapeSurvivesChurn: the polled closures read replica state through
// pointers that swap on kill/restart, so a scrape must stay correct (and not
// panic) across the whole churn cycle.
func TestObsScrapeSurvivesChurn(t *testing.T) {
	c, reg := startObsCluster(t, 3)
	if _, err := c.Write(0, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	scrape := func() string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if out := scrape(); !strings.Contains(out, `repro_replica_up{replica="n2"} 1`) {
		t.Fatalf("live replica not reported up:\n%s", out)
	}
	if err := c.Kill(2); err != nil {
		t.Fatal(err)
	}
	if out := scrape(); !strings.Contains(out, `repro_replica_up{replica="n2"} 0`) {
		t.Errorf("killed replica still reported up")
	}
	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	if out := scrape(); !strings.Contains(out, `repro_replica_up{replica="n2"} 1`) {
		t.Errorf("restarted replica not reported up")
	}
	// Writes after the restart keep feeding the same series (registration
	// is idempotent; the restarted node carries the observer again).
	before := reg.Total("repro_client_writes_acked_total")
	if _, err := c.Write(2, "k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got := reg.Total("repro_client_writes_acked_total"); got != before+1 {
		t.Errorf("acked = %v after post-restart write, want %v", got, before+1)
	}
}
