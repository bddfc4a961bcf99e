package metrics

import (
	"fmt"
	"io"
	"regexp"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Labels attaches dimensions to a metric series (e.g. site="nyc",
// kind="query"). A nil or empty map means an unlabeled series.
type Labels map[string]string

// Registry is a named collection of metric series with Prometheus
// text-format exposition. Sites register their counters into one registry
// per process; the admin endpoint serves it at /metrics. Series are keyed
// by (name, label set): registering the same pair twice returns the same
// instance, while different label sets under one name are distinct series
// — so every site in a process shares the registry without collisions.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family groups every series sharing a metric name (one HELP/TYPE block).
type family struct {
	name, help, typ string
	series          map[string]*series // key: canonical label rendering
}

// series is one (name, labels) time series and its value source.
type series struct {
	labels   string // canonical `k1="v1",k2="v2"` rendering, "" if unlabeled
	counter  *Counter
	gauge    *Gauge
	gaugeFn  func() float64
	hist     *Histogram
	sizeHist *SizeHistogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
var labelNameRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// Counter returns the counter series for (name, labels), creating it on
// first use. It panics when the name is already a different metric type —
// that is a programming error, not a runtime condition.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	s := r.getOrCreate(name, help, "counter", labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// RegisterCounter attaches an existing counter as the series for
// (name, labels), so long-lived components can expose the counters they
// already maintain. Re-registering the same pair keeps the first instance.
func (r *Registry) RegisterCounter(name, help string, labels Labels, c *Counter) {
	s := r.getOrCreate(name, help, "counter", labels)
	if s.counter == nil {
		s.counter = c
	}
}

// Gauge returns the gauge series for (name, labels), creating it on first
// use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	s := r.getOrCreate(name, help, "gauge", labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time (live
// occupancy numbers: store size, cached fragments). The function must be
// safe to call from the scrape goroutine.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	s := r.getOrCreate(name, help, "gauge", labels)
	if s.gaugeFn == nil && s.gauge == nil {
		s.gaugeFn = fn
	}
}

// RegisterProcess adds the process-wide memory gauges, read from
// runtime/metrics at scrape time: the heap that survived the last garbage
// collection, which is what grows when the program leaks, and the number of
// collections so far, which says how old that reading can be.
func (r *Registry) RegisterProcess() {
	r.GaugeFunc("irisnet_process_heap_live_bytes", "Heap bytes live after the last garbage collection.", nil,
		func() float64 { return readRuntime("/gc/heap/live:bytes") })
	r.GaugeFunc("irisnet_process_gc_cycles_total", "Garbage collections completed.", nil,
		func() float64 { return readRuntime("/gc/cycles/total:gc-cycles") })
}

func readRuntime(name string) float64 {
	sample := []rtmetrics.Sample{{Name: name}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0 // a runtime without this metric
	}
	return float64(sample[0].Value.Uint64())
}

// RegisterHistogram attaches an existing histogram, exposed in summary form
// (quantile series plus _sum and _count, durations in seconds).
func (r *Registry) RegisterHistogram(name, help string, labels Labels, h *Histogram) {
	s := r.getOrCreate(name, help, "summary", labels)
	if s.hist == nil {
		s.hist = h
	}
}

// RegisterSizeHistogram attaches an existing value histogram (dimensionless
// samples such as batch sizes), exposed in summary form with raw values.
func (r *Registry) RegisterSizeHistogram(name, help string, labels Labels, h *SizeHistogram) {
	s := r.getOrCreate(name, help, "summary", labels)
	if s.sizeHist == nil {
		s.sizeHist = h
	}
}

func (r *Registry) getOrCreate(name, help, typ string, labels Labels) *series {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: map[string]*series{}}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, then as %s", name, f.typ, typ))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		f.series[key] = s
	}
	return s
}

// renderLabels canonicalizes a label set: keys sorted, values escaped.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !labelNameRE.MatchString(k) {
			panic(fmt.Sprintf("metrics: invalid label name %q", k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + `="` + escapeLabelValue(labels[k]) + `"`
	}
	return strings.Join(parts, ",")
}

// escapeLabelValue applies the Prometheus text-format escaping rules.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp escapes HELP text per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// WritePrometheus writes the registry in Prometheus text exposition format
// (version 0.0.4): families sorted by name, series sorted by label set, so
// output is deterministic and diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			writeSeries(&b, f, f.series[k])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSeries(b *strings.Builder, f *family, s *series) {
	switch {
	case s.counter != nil:
		writeSample(b, f.name, s.labels, "", float64(s.counter.Value()))
	case s.gauge != nil:
		writeSample(b, f.name, s.labels, "", s.gauge.Value())
	case s.gaugeFn != nil:
		writeSample(b, f.name, s.labels, "", s.gaugeFn())
	case s.hist != nil:
		for _, q := range []float64{0.5, 0.9, 0.99} {
			ql := `quantile="` + strconv.FormatFloat(q, 'g', -1, 64) + `"`
			if s.labels != "" {
				ql = s.labels + "," + ql
			}
			writeSample(b, f.name, ql, "", s.hist.Quantile(q).Seconds())
		}
		writeSample(b, f.name, s.labels, "_sum", s.hist.Sum().Seconds())
		writeSample(b, f.name, s.labels, "_count", float64(s.hist.Count()))
	case s.sizeHist != nil:
		for _, q := range []float64{0.5, 0.9, 0.99} {
			ql := `quantile="` + strconv.FormatFloat(q, 'g', -1, 64) + `"`
			if s.labels != "" {
				ql = s.labels + "," + ql
			}
			writeSample(b, f.name, ql, "", s.sizeHist.Quantile(q))
		}
		writeSample(b, f.name, s.labels, "_sum", s.sizeHist.Sum())
		writeSample(b, f.name, s.labels, "_count", float64(s.sizeHist.Count()))
	}
}

func writeSample(b *strings.Builder, name, labels, suffix string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" {
		b.WriteString("{" + labels + "}")
	}
	b.WriteString(" ")
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	b.WriteString("\n")
}

// Gauge is a settable instantaneous value (float64, atomic via mutex-free
// CAS on the bit pattern would be overkill here: gauges are set rarely).
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta float64) {
	g.mu.Lock()
	g.v += delta
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// SetDuration sets the gauge to a duration in seconds.
func (g *Gauge) SetDuration(d time.Duration) { g.Set(d.Seconds()) }
