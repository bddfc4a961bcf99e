package metrics

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("queries_total", "queries", Labels{"site": "a"})
	a2 := r.Counter("queries_total", "queries", Labels{"site": "a"})
	if a != a2 {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	b := r.Counter("queries_total", "queries", Labels{"site": "b"})
	if a == b {
		t.Fatal("different label sets share one counter")
	}
	a.Add(3)
	b.Inc()
	if a.Value() != 3 || b.Value() != 1 {
		t.Fatalf("labeled series collide: a=%d b=%d", a.Value(), b.Value())
	}
}

func TestRegistryRegisterCounterKeepsFirst(t *testing.T) {
	r := NewRegistry()
	mine := &Counter{}
	mine.Add(7)
	r.RegisterCounter("hits_total", "", Labels{"site": "x"}, mine)
	got := r.Counter("hits_total", "", Labels{"site": "x"})
	if got != mine {
		t.Fatal("RegisterCounter did not attach the provided counter")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("thing", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("thing", "", nil)
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.Counter("bad-name", "", nil)
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("irisnet_queries_total", "Queries served.", Labels{"site": "nyc"}).Add(5)
	r.Counter("irisnet_queries_total", "Queries served.", Labels{"site": "sfo"}).Add(2)
	r.Gauge("irisnet_store_nodes", "Store size.", Labels{"site": "nyc"}).Set(42)
	r.GaugeFunc("irisnet_live", "Scrape-time value.", nil, func() float64 { return 1.5 })
	h := NewHistogram(0)
	h.Observe(100 * time.Millisecond)
	h.Observe(200 * time.Millisecond)
	r.RegisterHistogram("irisnet_query_seconds", "Latency.", Labels{"site": "nyc"}, h)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP irisnet_queries_total Queries served.\n",
		"# TYPE irisnet_queries_total counter\n",
		`irisnet_queries_total{site="nyc"} 5` + "\n",
		`irisnet_queries_total{site="sfo"} 2` + "\n",
		"# TYPE irisnet_store_nodes gauge\n",
		`irisnet_store_nodes{site="nyc"} 42` + "\n",
		"irisnet_live 1.5\n",
		"# TYPE irisnet_query_seconds summary\n",
		`irisnet_query_seconds{site="nyc",quantile="0.5"} 0.1` + "\n",
		`irisnet_query_seconds{site="nyc",quantile="0.99"} 0.2` + "\n",
		`irisnet_query_seconds_sum{site="nyc"} 0.3` + "\n",
		`irisnet_query_seconds_count{site="nyc"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}

	// Families must appear sorted by name, each preceded by its TYPE line.
	if strings.Index(out, "irisnet_live") > strings.Index(out, "irisnet_queries_total") {
		t.Error("families not sorted by name")
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" {
			t.Error("exposition contains a blank line")
		}
	}
}

// TestRegisterProcess checks that the process gauges read the runtime at
// scrape time: after garbage is made and collected, the cycle count has
// moved and the live heap is a real number.
func TestRegisterProcess(t *testing.T) {
	r := NewRegistry()
	r.RegisterProcess()
	scrape := func() map[string]float64 {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		for _, line := range strings.Split(b.String(), "\n") {
			if name, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					t.Fatalf("line %q: %v", line, err)
				}
				got[name] = f
			}
		}
		return got
	}
	runtime.GC()
	first := scrape()
	if first["irisnet_process_heap_live_bytes"] <= 0 {
		t.Fatalf("live heap reads %v", first["irisnet_process_heap_live_bytes"])
	}
	runtime.GC()
	second := scrape()
	if second["irisnet_process_gc_cycles_total"] <= first["irisnet_process_gc_cycles_total"] {
		t.Fatalf("gc cycles did not advance: %v then %v",
			first["irisnet_process_gc_cycles_total"], second["irisnet_process_gc_cycles_total"])
	}
}

// TestHistogramLazySort exercises the sort-once-per-batch path: quantiles
// interleaved with out-of-order and in-order observations must match a
// freshly sorted copy every time.
func TestHistogramLazySort(t *testing.T) {
	h := NewHistogram(0)
	obs := []time.Duration{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}
	for i, d := range obs {
		h.Observe(d * time.Millisecond)
		// Query mid-stream so the sorted flag flips repeatedly.
		if i%3 == 0 {
			h.Quantile(0.5)
		}
	}
	if got, want := h.Quantile(0), 1*time.Millisecond; got != want {
		t.Fatalf("min: got %v want %v", got, want)
	}
	if got, want := h.Quantile(1), 10*time.Millisecond; got != want {
		t.Fatalf("max: got %v want %v", got, want)
	}
	if got, want := h.Quantile(0.5), 5*time.Millisecond; got != want {
		t.Fatalf("median: got %v want %v", got, want)
	}
	// Ascending appends keep the sorted state; a smaller sample invalidates
	// it and the next quantile must still be exact.
	h.Observe(11 * time.Millisecond)
	h.Observe(12 * time.Millisecond)
	if got, want := h.Quantile(1), 12*time.Millisecond; got != want {
		t.Fatalf("max after ascending appends: got %v want %v", got, want)
	}
	h.Observe(0)
	if got, want := h.Quantile(0), time.Duration(0); got != want {
		t.Fatalf("min after out-of-order append: got %v want %v", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "", Labels{"site": "a\"b\\c\nd"}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `m_total{site="a\"b\\c\nd"} 1` + "\n"
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped label missing; got:\n%s", b.String())
	}
}
