// Package obs is the live observability layer: a lock-cheap registry of
// named counters, gauges and histograms snapshotted from running
// simulations, Prometheus text-format exposition, an opt-in HTTP server
// (/metrics, /status, net/http/pprof), sampled per-stage wall-time
// self-profiling of the simulator, and the machine-readable benchmark
// provenance schema behind `pfe-bench -json`.
//
// Everything on the update path is a single atomic operation (or a plain
// branch when observability is off), so simulations pay nothing unless a
// caller attaches the instruments.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic atomic tally, safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// NewCounter returns a standalone (unregistered) counter.
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current tally.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 value, safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bound atomic histogram exposed in Prometheus
// cumulative form (_bucket{le=...}, _sum, _count). Bounds are the inclusive
// upper edges of the finite buckets; an implicit +Inf bucket catches the
// rest. Observe is one atomic add per bucket touched.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram returns a standalone histogram with the given (sorted)
// upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metricKind is the Prometheus family type.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one labeled instance inside a family.
type series struct {
	labels []labelPair
	c      *Counter
	g      *Gauge
	f      func() float64
	h      *Histogram
}

type labelPair struct{ k, v string }

type family struct {
	name, help string
	kind       metricKind
	series     map[string]*series // keyed by rendered label string
	order      []string
}

// Registry holds named metrics for Prometheus exposition. Registration
// takes a mutex; updates to the returned instruments are lock-free.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

// labels converts alternating key, value strings to sorted pairs.
func toPairs(kv []string) []labelPair {
	if len(kv)%2 != 0 {
		panic("obs: labels must be alternating key, value pairs")
	}
	pairs := make([]labelPair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, labelPair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	return pairs
}

func renderLabels(pairs []labelPair, extra ...labelPair) string {
	all := append(append([]labelPair(nil), pairs...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// getSeries returns (creating if needed) the series for name+labels,
// checking the family's kind and help are consistent. init runs on the
// series while the registry lock is still held, so instrument creation is
// synchronized with concurrent WritePrometheus scrapes and with concurrent
// registrations of the same metric.
func (r *Registry) getSeries(name, help string, kind metricKind, kv []string, init func(*series)) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.fams[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.fams[name] = fam
	} else if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, fam.kind, kind))
	}
	pairs := toPairs(kv)
	key := renderLabels(pairs)
	s := fam.series[key]
	if s == nil {
		s = &series{labels: pairs}
		fam.series[key] = s
		fam.order = append(fam.order, key)
		sort.Strings(fam.order)
	}
	init(s)
	return s
}

// Counter registers (or returns the existing) counter name{labels}.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.getSeries(name, help, kindCounter, labels, func(s *series) {
		if s.c == nil {
			s.c = NewCounter()
		}
	})
	return s.c
}

// Gauge registers (or returns the existing) gauge name{labels}.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.getSeries(name, help, kindGauge, labels, func(s *series) {
		if s.g == nil {
			s.g = &Gauge{}
		}
	})
	return s.g
}

// GaugeFunc registers a gauge computed by f at scrape time. f must be safe
// for concurrent use.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...string) {
	r.getSeries(name, help, kindGauge, labels, func(s *series) { s.f = f })
}

// CounterFunc registers a counter-typed metric computed by f at scrape time
// (for monotonic values accumulated elsewhere, e.g. stage wall time). f
// must be safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...string) {
	r.getSeries(name, help, kindCounter, labels, func(s *series) { s.f = f })
}

// Histogram registers (or returns the existing) histogram name{labels} with
// the given upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	s := r.getSeries(name, help, kindHistogram, labels, func(s *series) {
		if s.h == nil {
			s.h = NewHistogram(bounds)
		}
	})
	return s.h
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format, families sorted by name, series sorted by labels.
// It is safe to call concurrently with metric updates.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	for _, n := range names {
		fam := r.fams[n]
		fmt.Fprintf(bw, "# HELP %s %s\n", fam.name, fam.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam.name, fam.kind)
		for _, key := range fam.order {
			s := fam.series[key]
			switch {
			case s.h != nil:
				var cum int64
				for i, bound := range s.h.bounds {
					cum += s.h.buckets[i].Load()
					fmt.Fprintf(bw, "%s_bucket%s %d\n", fam.name,
						renderLabels(s.labels, labelPair{"le", formatFloat(bound)}), cum)
				}
				cum += s.h.buckets[len(s.h.bounds)].Load()
				fmt.Fprintf(bw, "%s_bucket%s %d\n", fam.name,
					renderLabels(s.labels, labelPair{"le", "+Inf"}), cum)
				fmt.Fprintf(bw, "%s_sum%s %s\n", fam.name, key, formatFloat(s.h.Sum()))
				fmt.Fprintf(bw, "%s_count%s %d\n", fam.name, key, s.h.Count())
			case s.f != nil:
				fmt.Fprintf(bw, "%s%s %s\n", fam.name, key, formatFloat(s.f()))
			case s.c != nil:
				fmt.Fprintf(bw, "%s%s %d\n", fam.name, key, s.c.Value())
			case s.g != nil:
				fmt.Fprintf(bw, "%s%s %s\n", fam.name, key, formatFloat(s.g.Value()))
			}
		}
	}
	r.mu.Unlock()
	return bw.Flush()
}
