// Command bench is the repository's benchmark: four named workloads driven
// through the serving stack's public doors, end-to-end metrics measured
// with tracing off, and a per-layer ladder from a separate traced run. See
// README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// warmup is the untimed run of the workload before the measured window.
const warmup = 2 * time.Second

// attempts is how many times a workload is run before an invalid run (the
// generator fell behind its schedule) fails the benchmark: a disturbed
// quarter-minute on a shared machine is retried, a machine that cannot keep
// the schedule is an error.
const attempts = 3

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: all, or one of read_mostly, session_mix, durable_write, propagation")
	seed := fs.Int64("seed", 1, "seeds the inputs (key stream, origins, arrival schedule) and the replicas' and the model disk's random streams; topology and demand field are fixed")
	seconds := fs.Float64("seconds", 30, "measured seconds per workload, after set-up and the 2 s warm-up")
	trace := fs.Int("trace", 0, "1: traced run (obs on, spans kept, probes run) reporting the per-layer metrics")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default: bench-spans-<workload>.jsonl in the temp dir)")
	out := fs.String("out", "", "also write each run's result document into this directory, one file per run")
	compare := fs.Bool("compare", false, "compare two result files or directories: bench -compare a b")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json (or two directories of result files)")
			return 2
		}
		return compareMain(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	var selected []workloadSpec
	for _, w := range workloads {
		if *workload == "all" || *workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	code := 0
	for _, w := range selected {
		rc := runConfig{
			seed:     *seed,
			duration: time.Duration(*seconds * float64(time.Second)),
			warmup:   warmup,
			// setup_s is the median of at least five set-ups over at least 2 s.
			setupRounds: 5,
			setupFor:    2 * time.Second,
			trace:       *trace == 1,
		}
		var res *result
		for try := 1; try <= attempts; try++ {
			var err error
			if res, err = runWorkload(w, rc, *traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if res.Valid {
				break
			}
			fmt.Fprintf(os.Stderr, "bench: %s: attempt %d of %d is INVALID: the generator ran %.1f ms late (p99, limit %v)\n",
				w.name, try, attempts, res.Extra["gen_late_p99_us"].Value/1e3, genLateLimit)
		}
		doc, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Printf("%s\n", doc)
		if *out != "" {
			// One file per run, so that repeated runs into one directory
			// make a set that -compare takes the medians of.
			name := fmt.Sprintf("%s-seed%d-%d.json", w.name, *seed, time.Now().UnixNano())
			err := os.MkdirAll(*out, 0o755)
			if err == nil {
				err = os.WriteFile(filepath.Join(*out, name), doc, 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
		line, err := res.contractLine()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if !res.Correct || !res.Valid {
			// No metrics are accepted from an incorrect run, nor from one that
			// measured another schedule than the one asked for.
			fmt.Fprintf(os.Stderr, "bench: %s: rejected (correct=%v valid=%v), checks: %v\n", w.name, res.Correct, res.Valid, res.Checks)
			code = 1
			continue
		}
		fmt.Printf("%s\n", line)
	}
	return code
}

// runWorkload runs one workload. A traced run switches obs on, keeps
// spans, runs the isolated probes and fills the per-layer ladder. On
// session_mix the traced pass runs between two half-length passes that
// differ from it in one thing, obs off, and the drop in ops_per_s from their
// mean is the cost of the obs plane: bracketing cancels a machine that
// drifts during the run.
func runWorkload(w workloadSpec, rc runConfig, traceOut string) (*result, error) {
	if !rc.trace {
		return w.run(rc)
	}
	rc.spans = newSpanLog()
	obsOff := func() (float64, error) { return 0, nil }
	if w.name == "session_mix" {
		half := rc
		half.duration, half.setupRounds, half.setupFor, half.spans = rc.duration/2, 1, 0, newSpanLog()
		obsOff = func() (float64, error) {
			res, err := w.run(half)
			if err != nil {
				return 0, err
			}
			if !res.Correct {
				return 0, fmt.Errorf("obs-off pass failed its checks: %v", res.Checks)
			}
			return res.EndToEnd["ops_per_s"].Value, nil
		}
	}
	before, err := obsOff()
	if err != nil {
		return nil, err
	}
	rc.withObs = true
	res, err := w.run(rc)
	if err != nil {
		return nil, err
	}
	after, err := obsOff()
	if err != nil {
		return nil, err
	}
	overheadPct := 0.0
	if off := (before + after) / 2; off > 0 {
		overheadPct = (off - res.EndToEnd["ops_per_s"].Value) / off * 100
	}
	probes, err := runProbes(rc.seed)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	res.ladder(probes, overheadPct)
	if traceOut == "" {
		traceOut = filepath.Join(os.TempDir(), "bench-spans-"+w.name+".jsonl")
	}
	if err := rc.spans.writeFile(traceOut); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	res.extra("spans_written", float64(len(rc.spans.spans)), "count", 0)
	return res, nil
}
