package main

import (
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	vals := make([]float64, 200_000)
	for i := range vals {
		// log-uniform over 50 ns .. 5 s: every octave the benchmark sees
		v := math.Exp(rng.Float64()*math.Log(5e9/50)) * 50
		vals[i] = math.Floor(v)
		h.record(int64(vals[i]))
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)))]
		got := h.quantile(q)
		if e := math.Abs(got-exact) / exact; e > 0.03 {
			t.Errorf("q%.3f: hist %.0f, exact %.0f, error %.1f%% > 3%%", q, got, exact, e*100)
		}
	}
	if got := (&hist{}).quantile(0.5); got != 0 {
		t.Errorf("empty hist reads %v, want 0", got)
	}
}

func TestHistIndexBoundsAgree(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<43 + 12345} {
		lo, w := histBounds(histIndex(v))
		if v < lo || v >= lo+w {
			t.Errorf("value %d indexed into bucket [%d, %d)", v, lo, lo+w)
		}
		if w > 1 && float64(w)/float64(lo) > 1.0/32 {
			t.Errorf("bucket [%d, %d) wider than 1/32 of its edge", lo, lo+w)
		}
	}
}

// A target that stalls for 50 ms must charge the stall to the ops that
// were due during it: they are issued on schedule and timed from their due
// time, so each waits out the rest of the stall.
func TestOpenLoopChargesStallToDueOps(t *testing.T) {
	const (
		stallFrom = 60 * time.Millisecond
		stallTo   = 110 * time.Millisecond
	)
	due := fixedSchedule(1000, 200*time.Millisecond)
	start := time.Now()
	lat := make([]time.Duration, len(due))
	var mu sync.Mutex
	st := runOpenLoop(start, due, func(i int, at time.Time) {
		if since := time.Since(start); since >= stallFrom && since < stallTo {
			time.Sleep(stallTo - since) // the target is stalled until stallTo
		}
		mu.Lock()
		lat[i] = time.Since(at)
		mu.Unlock()
	})
	if st.issued != uint64(len(due)) {
		t.Fatalf("generator issued %d of %d ops", st.issued, len(due))
	}
	const slack = 15 * time.Millisecond // scheduler noise on a shared box
	charged := 0
	for i, d := range due {
		switch {
		case d >= stallFrom+slack && d < stallTo-slack:
			if want := stallTo - d; lat[i] < want-time.Millisecond {
				t.Errorf("op due at %v (inside the stall) took %v, want at least %v", d, lat[i], want)
			}
			charged++
		case d < stallFrom-slack || d >= stallTo+slack:
			if lat[i] > slack {
				t.Errorf("op due at %v (outside the stall) took %v", d, lat[i])
			}
		}
	}
	if charged < 15 {
		t.Fatalf("only %d ops fell inside the stall; the schedule is wrong", charged)
	}
	if st.peakInflight < int64(charged)/2 {
		t.Errorf("peak in flight %d: the generator stopped issuing during the stall", st.peakInflight)
	}
}

// The verdict on the schedule is taken like the metrics, from the median
// slice: one stalled slice condemns nothing, a generator that is late in
// most of them does.
func TestGeneratorLatenessIsJudgedBySlice(t *testing.T) {
	fill := func(stalled int) *openLoopStats {
		st := &openLoopStats{}
		for k := range st.late {
			late := time.Millisecond
			if k < stalled {
				late = 50 * time.Millisecond
			}
			for i := 0; i < 200; i++ {
				st.late[k].record(int64(late))
			}
		}
		return st
	}
	if st := fill(slices / 5); !st.valid() || st.lateP99us() > 1100 {
		t.Errorf("a fifth of the slices stalled: valid=%v, p99 %.0f us", st.valid(), st.lateP99us())
	}
	if st := fill(slices * 3 / 5); st.valid() {
		t.Errorf("three fifths of the slices stalled pass as valid, p99 %.0f us", st.lateP99us())
	}
}

// The speed metrics read the quiet quartile: slices a neighbour slowed, up
// to three in four of them, leave the value on the undisturbed side.
func TestQuietQuartileIgnoresDisturbedSlices(t *testing.T) {
	rate := make([]float64, 40)
	cost := make([]float64, 40)
	for i := range rate {
		rate[i], cost[i] = 1000, 2
		if i%4 != 0 && i < 36 { // 27 of 40 disturbed
			rate[i], cost[i] = 700, 3
		}
	}
	if got := quietQuartile(rate, true); got != 1000 {
		t.Errorf("throughput: quiet quartile %v, want 1000", got)
	}
	if got := quietQuartile(cost, false); got != 2 {
		t.Errorf("cost: quiet quartile %v, want 2", got)
	}
	if got := quietQuartile([]float64{5}, true); got != 5 {
		t.Errorf("one slice: %v", got)
	}
}

func TestSchedulesAreSeededAndBounded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 4000, time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 4000, time.Second)
	if len(a) != len(b) || len(a) < 3600 || len(a) > 4400 {
		t.Fatalf("poisson schedule: %d and %d arrivals for rate 4000 over 1 s", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || a[i] >= time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	if f := fixedSchedule(200, time.Second); len(f) != 199 || f[0] != 5*time.Millisecond {
		t.Fatalf("fixed schedule: %d arrivals, first at %v", len(f), f[0])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name         string
		a, b         []float64
		higherBetter bool
		want         string
	}{
		{"same", tight, []float64{103, 104, 102, 103, 105}, false, "same"},
		{"worse lower-better", tight, []float64{120, 121, 119, 120, 122}, false, "worse"},
		{"better lower-better", tight, []float64{80, 81, 79, 80, 82}, false, "better"},
		{"worse higher-better", tight, []float64{80, 81, 79, 80, 82}, true, "worse"},
		{"unresolved", []float64{60, 100, 140, 80, 120}, []float64{70, 110, 150, 90, 130}, false, "unresolved"},
		{"wide but disjoint", []float64{60, 100, 140, 80, 120}, []float64{10, 20, 30, 15, 25}, false, "better"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.a, c.b, c.higherBetter, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestLagTargets(t *testing.T) {
	// 5 replicas: a write at origin 0 has 4 targets, one top and one bottom.
	tg := lagTargetsFor([]float64{50, 10, 90, 30, 70})
	if got := tg[0]; len(got.top) != 1 || got.top[0] != 2 || len(got.bottom) != 1 || got.bottom[0] != 1 {
		t.Fatalf("origin 0: %+v", got)
	}
	if got := tg[2]; got.top[0] != 4 || got.bottom[0] != 1 {
		t.Fatalf("origin 2 (the top-demand replica itself): %+v", got)
	}
	// 16 replicas: 15 targets, 4 in each quarter, disjoint.
	dem := make([]float64, 16)
	for i := range dem {
		dem[i] = float64(i)
	}
	if got := lagTargetsFor(dem)[3]; len(got.top) != 4 || len(got.bottom) != 4 || got.top[0] != 15 || got.bottom[3] != 0 {
		t.Fatalf("16 replicas, origin 3: %+v", got)
	}
}

func names[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d names, BENCHMARK.json has %d\n emitted: %v\n declared: %v", what, len(got), len(want), got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: emitted %q where BENCHMARK.json has %q", what, got[i], want[i])
		}
	}
}

// Every workload and the probes run end to end at a short duration; the
// names they emit are the names BENCHMARK.json declares, in both
// directions, every value is finite, and every correctness check ran.
func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	var wantWorkloads, wantE2E, wantLayer []string
	units, better := make(map[string]string), make(map[string]string)
	for _, w := range bf.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	for _, m := range bf.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		wantLayer = append(wantLayer, m.Name)
		units[m.Name] = m.Unit
		better[m.Name] = m.Better
	}
	var haveWorkloads []string
	for _, w := range workloads {
		haveWorkloads = append(haveWorkloads, w.name)
	}
	sort.Strings(haveWorkloads)
	sameNames(t, "workloads", haveWorkloads, wantWorkloads)

	wantChecks := map[string][]string{
		"read_mostly":   {"converged", "digests_agree", "no_failed_ops"},
		"session_mix":   {"converged", "digests_agree", "no_failed_ops", "reads_own_write"},
		"durable_write": {"converged", "digests_agree", "no_failed_ops", "acked_survive_power_cut", "converged_after_power_cut"},
		"propagation":   {"converged", "digests_agree", "no_failed_ops", "top_demand_first"},
	}
	finite := func(w string, ms map[string]metric) {
		for name, m := range ms {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", w, name, m.Value)
			}
			if u, ok := units[name]; ok && u != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w, name, m.Unit, u)
			}
		}
	}
	defer func(n int) { probeBatches = n }(probeBatches)
	probeBatches = 1
	for _, w := range workloads {
		rc := runConfig{seed: 1, duration: 200 * time.Millisecond, warmup: 50 * time.Millisecond, setupRounds: 1}
		switch w.name {
		case "propagation":
			// 40 watched writes cannot order two medians; the ordering check
			// needs a run long enough for the quartiles to separate.
			rc.duration = 600 * time.Millisecond
		case "durable_write":
			// The one traced run: the disk rungs are live here.
			rc.trace = true
		}
		res, err := runWorkload(w, rc, filepath.Join(t.TempDir(), "spans.jsonl"))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		sameNames(t, w.name+" end-to-end metrics", names(res.EndToEnd), wantE2E)
		finite(w.name, res.EndToEnd)
		finite(w.name, res.Extra)
		for name, m := range res.EndToEnd {
			if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s reads 0", w.name, name)
			}
		}
		for _, c := range wantChecks[w.name] {
			if ok, ran := res.Checks[c]; !ran || !ok {
				t.Errorf("%s: check %s ran=%v ok=%v", w.name, c, ran, ok)
			}
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d checks=%v", w.name, res.Correct, res.Attempted, res.Failed, res.Checks)
		}
		if _, err := res.contractLine(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if !rc.trace {
			continue
		}
		sameNames(t, "per-layer metrics", names(res.PerLayer), wantLayer)
		finite(w.name+" traced", res.PerLayer)
		for name, m := range res.PerLayer {
			if m.Layer == "" || m.Moves == "" {
				t.Errorf("per-layer metric %s names no layer or no end-to-end metric it should move: %+v", name, m)
			}
			if m.Better != better[name] {
				t.Errorf("per-layer metric %s: better %q, BENCHMARK.json says %q", name, m.Better, better[name])
			}
		}
		for _, live := range []string{"vfs.syncs_per_write", "wal.fsync_ms_p50", "runtime.commit_batch_mean", "harness.peak_inflight", "store.get_ns", "mc.sessions_all"} {
			if res.PerLayer[live].Value <= 0 {
				t.Errorf("traced durable_write: %s = %v, want > 0", live, res.PerLayer[live].Value)
			}
		}
		if got := res.PerLayer["wal.fsync_ms_p50"].Value; got < 1.5 || got > 4 {
			t.Errorf("wal.fsync_ms_p50 = %.2f, the model disk syncs in 2 ms", got)
		}
		if res.Extra["spans_written"].Value == 0 {
			t.Error("traced run kept no spans")
		}
	}
}
