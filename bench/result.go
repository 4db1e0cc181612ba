package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metric is one reported number. N is the sample count behind it. A
// per-layer metric also says which way is better, which layer it measures
// and which end-to-end metric it is predicted to move.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      uint64  `json:"n,omitempty"`
	Better string  `json:"better,omitempty"`
	Layer  string  `json:"layer,omitempty"`
	Moves  string  `json:"moves,omitempty"`
}

// envInfo is the run's recorded environment.
type envInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func readEnv() envInfo {
	env := envInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	// `go run` inside a git repository stamps the revision; run.sh builds
	// without stamping and passes the revision in the environment. The
	// driver's checkout is not a repository, so "unknown" is expected there.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if c := os.Getenv("BENCH_COMMIT"); c != "" && env.Commit == "unknown" {
		env.Commit = c
	}
	return env
}

// result is one workload's run: the document `-out` writes and `-compare`
// reads. The contract line printed last on stdout is a projection of it.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Env       envInfo           `json:"env"`
	Correct   bool              `json:"correct"`
	Valid     bool              `json:"valid"` // open loop: the generator kept its schedule
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Checks    map[string]bool   `json:"checks"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	Extra     map[string]metric `json:"extra"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`

	// Raw readings the per-layer ladder is computed from.
	proto        protoStats
	wall         time.Duration
	replicas     int
	obs          obsReadings
	disk         *diskCounts
	gen          *openLoopStats
	sessionReads uint64
}

func newResult(name string, rc runConfig) *result {
	return &result{
		Workload: name,
		Seed:     rc.seed,
		Seconds:  rc.duration.Seconds(),
		Trace:    rc.trace,
		Env:      readEnv(),
		Correct:  true,
		Valid:    true,
		Checks:   make(map[string]bool),
		EndToEnd: make(map[string]metric),
		Extra:    make(map[string]metric),
	}
}

// check records a named correctness check; any failure makes the run
// incorrect.
func (r *result) check(name string, ok bool) {
	r.Checks[name] = ok
	if !ok {
		r.Correct = false
	}
}

// finish records the op tallies. failed_share must be 0 at the default
// load: the workloads are sized so that no op fails.
func (r *result) finish(attempted, failed uint64, valid bool) {
	r.Attempted, r.Failed, r.Valid = attempted, failed, valid
	r.check("no_failed_ops", failed == 0 && attempted > 0)
	share := 0.0
	if attempted > 0 {
		share = float64(failed) / float64(attempted)
	}
	r.extra("failed_share", share, "ratio", attempted)
}

func (r *result) e2e(name string, v float64, unit string, n uint64) {
	r.EndToEnd[name] = metric{Value: v, Unit: unit, N: n}
}

func (r *result) extra(name string, v float64, unit string, n uint64) {
	r.Extra[name] = metric{Value: v, Unit: unit, N: n}
}

// writeLatency records the client write latency and, beside the gated p99,
// the percentile rule's tail over the whole window.
func (r *result) writeLatency(w *sliced) {
	all := w.all()
	r.e2e("write_p50_us", w.quietQuantile(0.5)/1e3, "us", all.n)
	r.e2e("write_p99_us", w.quantile(0.99)/1e3, "us", all.n)
	q, v := all.tail()
	r.extra(fmt.Sprintf("write_tail_p%g_us", q*100), v/1e3, "us", all.n)
}

// lagMetrics records the propagation-lag metrics every workload reports.
func (r *result) lagMetrics(lag *lagStats) {
	full := lag.full.all()
	r.e2e("lag_top_p50_ms", lag.top.quantile(0.5)/1e6, "ms", lag.top.all().n)
	r.e2e("lag_bottom_p50_ms", lag.bottom.quantile(0.5)/1e6, "ms", lag.bottom.all().n)
	r.e2e("lag_full_p50_ms", lag.full.quantile(0.5)/1e6, "ms", full.n)
	r.extra("lag_full_p99_ms", full.quantile(0.99)/1e6, "ms", full.n)
	q, v := full.tail()
	r.extra(fmt.Sprintf("lag_full_tail_p%g_ms", q*100), v/1e6, "ms", full.n)
}

// contractLine is the last line of standard output: the object the driver
// reads.
func (r *result) contractLine() ([]byte, error) {
	type cm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := r.EndToEnd
	if r.Trace {
		src = r.PerLayer
	}
	metrics := make(map[string]cm, len(src))
	for name, m := range src {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
		metrics[name] = cm{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]cm `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}
