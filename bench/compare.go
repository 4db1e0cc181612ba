package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json (at the repository root)
// that -compare and the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadBenchmarkFile reads BENCHMARK.json from the working directory
// (run.sh runs at the repository root) or the one above (`go run -C bench`).
func loadBenchmarkFile() (*benchmarkFile, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		if b, err = os.ReadFile(filepath.Join("..", "BENCHMARK.json")); err != nil {
			return nil, err
		}
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// loadResults reads one result file, or every *.json file of a directory,
// and groups the end-to-end values of the correct, valid runs by workload
// and metric.
func loadResults(path string) (map[string]map[string][]float64, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	out := make(map[string]map[string][]float64)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Correct || !r.Valid {
			// An invalid run (generator late) measured another schedule than
			// the one asked for; it is left out, not averaged in.
			fmt.Fprintf(os.Stderr, "bench: %s: run is incorrect or invalid, left out\n", f)
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.EndToEnd {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, nil
}

// quartiles matches Python's statistics.quantiles(v, n=4): the driver's
// spread is (q3 - q1) / median.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// verdict applies one metric's bound to two sets of runs. A metric whose
// run-to-run spread is wider than its bound is unresolved, not unchanged,
// unless every run of one side beats every run of the other.
func verdict(a, b []float64, higherBetter bool, bound float64) (string, float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worseBy := 0.0 // share of a's median by which b is worse
	if ma != 0 {
		worseBy = (mb - ma) / ma
		if higherBetter {
			worseBy = -worseBy
		}
	}
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	bAllHigher, bAllLower := sb[0] > sa[len(sa)-1], sb[len(sb)-1] < sa[0]
	if spread(a) > bound || spread(b) > bound {
		switch {
		case len(a) > 1 && len(b) > 1 && (bAllHigher && higherBetter || bAllLower && !higherBetter):
			return "better", worseBy
		case len(a) > 1 && len(b) > 1 && (bAllLower && higherBetter || bAllHigher && !higherBetter):
			return "worse", worseBy
		}
		return "unresolved", worseBy
	}
	switch {
	case worseBy > bound:
		return "worse", worseBy
	case worseBy < -bound:
		return "better", worseBy
	}
	return "same", worseBy
}

// compareMain prints one row per (workload, end-to-end metric) and exits
// non-zero when any row reads worse.
func compareMain(pathA, pathB string) int {
	bf, err := loadBenchmarkFile()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: BENCHMARK.json: %v\n", err)
		return 2
	}
	a, err := loadResults(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := loadResults(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median (n, spread)\tb median (n, spread)\tb worse by\tbound\tverdict")
	code := 0
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t%.0f%%\tmissing\n", w.Name, m.Name, m.Unit, m.Bound*100)
				continue
			}
			v, worseBy := verdict(va, vb, m.Better == "higher", m.Bound)
			if v == "worse" {
				code = 1
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g (%d, %.1f%%)\t%.4g (%d, %.1f%%)\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, m.Name, m.Unit, ma, len(va), spread(va)*100, mb, len(vb), spread(vb)*100, worseBy*100, m.Bound*100, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return 2
	}
	return code
}
