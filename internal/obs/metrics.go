package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind is the exposition TYPE of a counter or gauge family.
type Kind string

// Family kinds.
const (
	Counter Kind = "counter"
	Gauge   Kind = "gauge"

	histogram Kind = "histogram"
)

// Sample is one series of a labelled family. Labels alternate label
// names and values: {"task", "write", "model", "gpt-4"}.
type Sample struct {
	Labels []string
	Value  float64
}

// Registry is the /metrics contract: every family is declared once,
// with its help text and kind, and Write is the only exposition writer.
// A declaration that breaks the contract panics, so a bad name cannot
// reach a scrape:
//   - the name must match ^chatvis_[a-z][a-z0-9_]*$;
//   - a name is declared once;
//   - a counter's name ends in _total, and no other family's does.
type Registry struct {
	mu       sync.Mutex
	families []family
	declared map[string]bool
}

type family struct {
	name, help string
	kind       Kind
	write      func(b *strings.Builder, openMetrics bool)
}

var metricName = regexp.MustCompile(`^chatvis_[a-z][a-z0-9_]*$`)

// NewRegistry returns a registry holding the Go runtime families
// (chatvis_go_*), which read one runtime snapshot per scrape.
func NewRegistry() *Registry {
	r := &Registry{declared: map[string]bool{}}
	// Write runs families in declaration order, one scrape at a time, so
	// the first runtime family takes the snapshot the others read.
	var rs runtimeStats
	r.Value("chatvis_go_goroutines", "Live goroutines.", Gauge, func() float64 {
		rs = readRuntimeStats()
		return float64(rs.Goroutines)
	})
	r.Value("chatvis_go_heap_alloc_bytes", "Heap bytes allocated and in use.", Gauge, func() float64 { return float64(rs.HeapAllocBytes) })
	r.Value("chatvis_go_heap_sys_bytes", "Heap bytes obtained from the OS.", Gauge, func() float64 { return float64(rs.HeapSysBytes) })
	r.Value("chatvis_go_heap_objects", "Live heap objects.", Gauge, func() float64 { return float64(rs.HeapObjects) })
	r.Value("chatvis_go_gc_cycles_total", "Completed GC cycles.", Counter, func() float64 { return float64(rs.GCCycles) })
	r.Value("chatvis_go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause.", Counter, func() float64 { return float64(rs.GCPauseNsTotal) / 1e9 })
	r.Value("chatvis_go_next_gc_bytes", "Heap size that triggers the next GC cycle.", Gauge, func() float64 { return float64(rs.NextGCBytes) })
	return r
}

// Value declares an unlabelled counter or gauge read from v at scrape
// time.
func (r *Registry) Value(name, help string, kind Kind, v func() float64) {
	r.declare(name, help, kind, func(b *strings.Builder, _ bool) {
		writeSample(b, name, nil, v())
	})
}

// Labeled declares a counter or gauge whose series samples returns at
// scrape time.
func (r *Registry) Labeled(name, help string, kind Kind, samples func() []Sample) {
	r.declare(name, help, kind, func(b *strings.Builder, _ bool) {
		for _, s := range samples() {
			writeSample(b, name, s.Labels, s.Value)
		}
	})
}

// Histogram declares a histogram family over h.
func (r *Registry) Histogram(name, help string, h *Histogram) {
	r.declare(name, help, histogram, func(b *strings.Builder, openMetrics bool) {
		h.write(b, name, openMetrics)
	})
}

func (r *Registry) declare(name, help string, kind Kind, write func(*strings.Builder, bool)) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("obs: metric name %q does not match %s", name, metricName))
	}
	if total := strings.HasSuffix(name, "_total"); total != (kind == Counter) {
		panic(fmt.Sprintf("obs: %s %s: counters, and only counters, end in _total", kind, name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.declared[name] {
		panic(fmt.Sprintf("obs: metric %s declared twice", name))
	}
	r.declared[name] = true
	r.families = append(r.families, family{name: name, help: help, kind: kind, write: write})
}

// Families returns the declared family names in declaration order.
func (r *Registry) Families() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, len(r.families))
	for i, f := range r.families {
		names[i] = f.name
	}
	return names
}

// Write renders every family with its HELP and TYPE lines, in
// declaration order. The OpenMetrics exposition adds the histogram
// bucket exemplars and the closing "# EOF"; Prometheus text has neither.
func (r *Registry) Write(w io.Writer, openMetrics bool) error {
	var b strings.Builder
	r.mu.Lock()
	for _, f := range r.families {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		f.write(&b, openMetrics)
	}
	r.mu.Unlock()
	if openMetrics {
		b.WriteString("# EOF\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSample writes one series line. Integral values print as
// integers, others as %v.
func writeSample(b *strings.Builder, name string, labels []string, v float64) {
	b.WriteString(name)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(b, "%s%s=%q", sep, labels[i], labels[i+1])
	}
	if len(labels) > 1 {
		b.WriteByte('}')
	}
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		fmt.Fprintf(b, " %d\n", int64(v))
	} else {
		fmt.Fprintf(b, " %v\n", v)
	}
}

// Histogram is a fixed-bucket duration histogram in seconds. Each bucket
// keeps the trace ID of its latest traced observation as an exemplar.
type Histogram struct {
	bounds []float64

	mu        sync.Mutex
	counts    []int64 // per bucket, not cumulative; the last is +Inf
	exemplars []exemplar
	sum       time.Duration
}

type exemplar struct {
	traceID string
	secs    float64
}

// NewHistogram returns a histogram with the given ascending bucket upper
// bounds in seconds; an +Inf bucket is implied.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{
		bounds:    bounds,
		counts:    make([]int64, len(bounds)+1),
		exemplars: make([]exemplar, len(bounds)+1),
	}
}

// Observe records one duration; a non-empty traceID becomes its bucket's
// exemplar.
func (h *Histogram) Observe(d time.Duration, traceID string) {
	secs := d.Seconds()
	slot := len(h.bounds)
	for i, ub := range h.bounds {
		if secs <= ub {
			slot = i
			break
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counts[slot]++
	h.sum += d
	if traceID != "" {
		h.exemplars[slot] = exemplar{traceID: traceID, secs: secs}
	}
}

func (h *Histogram) write(b *strings.Builder, name string, openMetrics bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum int64
	for i := range h.counts {
		cum += h.counts[i]
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		fmt.Fprintf(b, "%s_bucket{le=%q} %d", name, le, cum)
		if ex := h.exemplars[i]; openMetrics && ex.traceID != "" {
			fmt.Fprintf(b, " # {trace_id=%q} %g", ex.traceID, ex.secs)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(b, "%s_sum %g\n%s_count %d\n", name, h.sum.Seconds(), name, cum)
}
