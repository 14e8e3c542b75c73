package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a concurrency-safe metrics registry. Subsystems (buffer,
// skipcache, wal, txn, twopc, network) either create live instruments
// (Counter, Histogram) or register gauge functions over values they
// already maintain as atomics; /metrics renders both identically.
//
// Names are dotted lowercase paths, subsystem first: "buffer.hits",
// "network.bytes_total", "query.seconds". Counters end in "_total" when
// they are monotonic sums over the process lifetime.
type Registry struct {
	mu         sync.RWMutex //lint:lockorder obs.registry leaf
	counters   map[string]*Counter
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gaugeFuncs: map[string]func() int64{},
		hists:      map[string]*Histogram{},
	}
}

// Counter is a monotonically increasing metric. All methods are nil-safe so
// components can hold an optional counter without branching.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram counts observations into fixed buckets (upper bounds,
// ascending) plus a sum, for latency/size distributions.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last = overflow
	sum    atomic.Int64   // sum in micro-units to stay integral
	total  atomic.Int64
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(int64(v * 1e6))
	h.total.Add(1)
}

// Total returns the observation count.
func (h *Histogram) Total() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sum.Load()) / 1e6
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns (creating if needed) the named histogram with the given
// bucket upper bounds. Bounds are fixed by the first registration.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// RegisterGaugeFunc publishes a live view over an existing counter: fn is
// called at snapshot time. Registering the same name again replaces the
// function (a restarted component re-registers).
func (r *Registry) RegisterGaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFuncs[name] = fn
	r.mu.Unlock()
}

// Metric is one snapshot entry.
type Metric struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"` // counter | gauge | histogram
	Value float64 `json:"value"`
}

// Snapshot returns every metric's current value, sorted by name.
// Histograms report their observation count as Value (the full
// distribution is rendered only by WriteText).
//
// Gauge funcs are copied out under the lock and called after it is
// released: they are the registering component's code and take its locks,
// and a component that touches the registry under one of those (srv's
// Admission counted admissions under its mutex) would otherwise close a
// cycle through this lock as soon as a writer queued behind the snapshot.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	type gaugeFunc struct {
		name string
		fn   func() int64
	}
	r.mu.RLock()
	out := make([]Metric, 0, len(r.counters)+len(r.gaugeFuncs)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: "counter", Value: float64(c.Value())})
	}
	fns := make([]gaugeFunc, 0, len(r.gaugeFuncs))
	for name, fn := range r.gaugeFuncs {
		fns = append(fns, gaugeFunc{name, fn})
	}
	for name, h := range r.hists {
		out = append(out, Metric{Name: name, Kind: "histogram", Value: float64(h.Total())})
	}
	r.mu.RUnlock()
	for _, g := range fns {
		out = append(out, Metric{Name: g.name, Kind: "gauge", Value: float64(g.fn())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteText renders the registry in an expfmt-like plain-text form:
// one "name value" line per metric; histograms additionally expose
// cumulative "name_bucket{le=...}" lines plus _sum and _count.
func (r *Registry) WriteText(w io.Writer) {
	if r == nil {
		return
	}
	for _, m := range r.Snapshot() {
		if m.Kind == "histogram" {
			continue // rendered below with buckets
		}
		fmt.Fprintf(w, "%s %g\n", m.Name, m.Value)
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.hists))
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := r.hists[name]
		var cum int64
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum())
		fmt.Fprintf(w, "%s_count %d\n", name, h.Total())
	}
	r.mu.RUnlock()
}
