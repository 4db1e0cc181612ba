// Package obs is the observability plane: a low-overhead metrics registry
// (atomic counters, gauges, and fixed-bucket histograms with padded
// striping), a propagation tracer that measures origin→replica visibility
// latency on the live cluster — the paper's headline metric, observed
// instead of simulated — and an opt-in HTTP server exposing everything as
// Prometheus text format plus pprof and /statusz.
//
// # Design
//
// The hot-path instruments are modeled on the two lock-free structures the
// runtime already trusts under full load: the CAS-packed demand meter
// (internal/runtime) and the striped store (internal/store). A Counter is a
// small array of cache-line-padded atomic cells; Add picks a cell with a
// cheap per-thread random draw, so concurrent writers do not collide on one
// line. A Histogram stripes whole bucket arrays the same way. Neither path
// locks or allocates — AllocsPerRun on Counter.Add and Histogram.Observe is
// zero, enforced by tests — so instruments can sit inside the group-commit
// leader and the absorb path without moving the benchmarks.
//
// Everything cheap to *read* but already counted elsewhere (node.Stats,
// store read counters, WAL stats, transport queue depths) is exposed
// through CounterFunc/GaugeFunc closures evaluated only at scrape time:
// zero cost when nobody is watching, and the untouchable lock-free read
// path stays untouched.
//
// Registration is idempotent: asking for an instrument that already exists
// (same name, same labels) returns the existing one, so components that are
// rebuilt at runtime (restarted replicas, added shards) re-attach to their
// series instead of duplicating them.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// nStripes is the fixed stripe count for counters and histograms: enough to
// spread a handful of contending writers (the group-commit leader, the
// replica goroutine, a few clients) without bloating every instrument.
const nStripes = 8

// stripe returns a per-call stripe index. math/rand/v2's top-level
// generator is per-thread, lock-free and allocation-free, so two goroutines
// running hot land on different cells with high probability at ~2ns cost.
func stripe() uint64 { return rand.Uint64() & (nStripes - 1) }

// Label is one name=value dimension attached to a series.
type Label struct {
	// Key is the label name (a valid Prometheus label identifier).
	Key string
	// Value is the label value (escaped on exposition).
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// counterCell is one padded stripe of a Counter. The padding keeps adjacent
// cells on distinct cache lines so concurrent Adds do not false-share.
type counterCell struct {
	n atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing striped atomic counter. The zero
// value is unusable; obtain counters from a Registry. All methods are safe
// for concurrent use and allocation-free.
type Counter struct {
	cells [nStripes]counterCell
}

// Inc adds 1.
func (c *Counter) Inc() { c.cells[stripe()].n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.cells[stripe()].n.Add(n) }

// Value returns the current total across stripes.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}

// Gauge is an instantaneous float64 value stored as atomic bits. All
// methods are safe for concurrent use and allocation-free.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta via CAS (use Set when the new value is absolute).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind discriminates what one series holds.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

// promType returns the Prometheus TYPE keyword for the kind.
func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one (name, labels) instrument inside a family.
type series struct {
	labels   []Label
	labelKey string // canonical rendered labels, also the dedup key

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family groups every series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use; instrument
// hot paths (Counter.Add etc.) never touch the registry lock.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register resolves (or creates) the series for (name, labels, kind). A new
// series gets its instrument from create while the registry lock is still
// held: a concurrent registration of the same series must never find it
// without one. Kind mismatches across a family panic: they are programming
// errors that would render malformed exposition.
func (r *Registry) register(name, help string, kind metricKind, labels []Label, create func(*series)) *series {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: kind}
		r.families[name] = fam
		r.order = append(r.order, fam)
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind.promType(), fam.kind.promType()))
	}
	for _, s := range fam.series {
		if s.labelKey == key {
			return s
		}
	}
	s := &series{labels: append([]Label(nil), labels...), labelKey: key}
	create(s)
	fam.series = append(fam.series, s)
	return s
}

// Counter returns the counter registered under name with the given labels,
// creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, kindCounter, labels, func(s *series) { s.counter = &Counter{} }).counter
}

// Gauge returns the gauge registered under name with the given labels,
// creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, kindGauge, labels, func(s *series) { s.gauge = &Gauge{} }).gauge
}

// CounterFunc registers a polled counter series: fn is evaluated at scrape
// time and must be monotone non-decreasing. Re-registering the same series
// replaces the function (components rebuilt at runtime re-attach).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindCounterFunc, labels, func(*series) {}).fn = fn
}

// GaugeFunc registers a polled gauge series: fn is evaluated at scrape
// time. Re-registering the same series replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGaugeFunc, labels, func(*series) {}).fn = fn
}

// Histogram returns the histogram registered under name with the given
// labels, creating it with the bucket upper bounds on first use (bounds are
// ignored for an existing series).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.register(name, help, kindHistogram, labels, func(s *series) { s.hist = NewHistogram(bounds) }).hist
}

// Total sums the current values of every series in the named family
// (counters, gauges and polled functions; histogram families sum their
// observation counts). Unknown names return 0. It exists for tests and
// cross-checks, not for hot paths.
func (r *Registry) Total(name string) float64 {
	r.mu.Lock()
	fam := r.families[name]
	var snap []*series
	if fam != nil {
		snap = append(snap, fam.series...)
	}
	r.mu.Unlock()
	var total float64
	for _, s := range snap {
		switch {
		case s.counter != nil:
			total += float64(s.counter.Value())
		case s.gauge != nil:
			total += s.gauge.Value()
		case s.fn != nil:
			total += s.fn()
		case s.hist != nil:
			total += float64(s.hist.Snapshot().Count)
		}
	}
	return total
}

// Histograms returns every histogram series of the named family (for
// merging quantiles across label dimensions, e.g. per-shard lag).
func (r *Registry) Histograms(name string) []*Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil || fam.kind != kindHistogram {
		return nil
	}
	out := make([]*Histogram, 0, len(fam.series))
	for _, s := range fam.series {
		out = append(out, s.hist)
	}
	return out
}

// WritePrometheus renders every family in registration order as Prometheus
// text exposition format (version 0.0.4): one HELP and TYPE line per
// family, then each series. Polled functions are evaluated during the
// write; instrument writers are never blocked.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.order))
	copy(fams, r.order)
	snap := make(map[*family][]*series, len(fams))
	for _, fam := range fams {
		snap[fam] = append([]*series(nil), fam.series...)
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, fam := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam.name, fam.kind.promType())
		for _, s := range snap[fam] {
			writeSeries(&b, fam, s)
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeSeries renders one series into b.
func writeSeries(b *strings.Builder, fam *family, s *series) {
	switch {
	case s.counter != nil:
		fmt.Fprintf(b, "%s%s %d\n", fam.name, s.labelKey, s.counter.Value())
	case s.gauge != nil:
		fmt.Fprintf(b, "%s%s %s\n", fam.name, s.labelKey, formatFloat(s.gauge.Value()))
	case s.fn != nil:
		fmt.Fprintf(b, "%s%s %s\n", fam.name, s.labelKey, formatFloat(s.fn()))
	case s.hist != nil:
		writeHistSeries(b, fam.name, s)
	}
}

// writeHistSeries renders one histogram series: cumulative _bucket lines
// with le labels, then _sum and _count.
func writeHistSeries(b *strings.Builder, name string, s *series) {
	snap := s.hist.Snapshot()
	var cum uint64
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(s.labels, formatFloat(bound)), cum)
	}
	cum += snap.Counts[len(snap.Bounds)]
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(s.labels, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.labelKey, formatFloat(snap.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.labelKey, snap.Count)
}

// renderLabels produces the canonical `{k="v",...}` form (empty string for
// no labels), sorting keys so label order never splits a series.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes exactly what the exposition format requires of label
		// values: backslash, double quote and newline.
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// withLE renders labels plus the histogram le bucket label.
func withLE(labels []Label, le string) string {
	all := make([]Label, 0, len(labels)+1)
	all = append(all, labels...)
	all = append(all, Label{Key: "le", Value: le})
	return renderLabels(all)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(h)
}

// formatFloat renders a float compactly, with integral values kept short.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
