package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure. Absent metrics (no samples, or a span
// name or /metrics family the daemon no longer emits) are printed as
// absent and carried as 0 in the JSON line.
type metric struct {
	name   string
	value  float64
	unit   string
	n      int    // sample count behind the value (0 = not a sample statistic)
	note   string // e.g. the percentile actually reported
	absent bool
}

type metricSet struct{ list []metric }

func (m *metricSet) add(name string, v float64, unit string, n int, note string) {
	m.list = append(m.list, metric{name: name, value: v, unit: unit, n: n, note: note})
}

func (m *metricSet) absent(name, unit, why string) {
	m.list = append(m.list, metric{name: name, unit: unit, note: why, absent: true})
}

// ratio adds num/den, or marks it absent when either is missing or the
// denominator is zero.
func (m *metricSet) ratio(name, unit string, num, den float64, ok bool, why string) {
	if !ok || den == 0 {
		m.absent(name, unit, why)
		return
	}
	m.add(name, num/den, unit, 0, "")
}

// quantile addresses one percentile of a sample set.
type quantile struct {
	p    float64 // requested percentile in (0, 100)
	used float64 // the percentile actually reported
}

// percentile returns the q-th percentile (nearest rank over sorted
// values). For upper percentiles it follows the tail rule: if fewer than
// ten samples lie beyond q, it reports the highest percentile that still
// has ten beyond it.
func percentile(vals []float64, q float64) (float64, quantile) {
	if len(vals) == 0 {
		return 0, quantile{p: q}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	used := q
	if q > 50 {
		if maxQ := 100 * (1 - 10/float64(len(s))); maxQ < q {
			used = math.Max(50, maxQ)
		}
	}
	idx := int(math.Ceil(used/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx], quantile{p: q, used: used}
}

// addPercentile adds the percentile of vals in ms, absent when empty.
func (m *metricSet) addPercentile(name string, vals []float64, q float64, why string) {
	if len(vals) == 0 {
		m.absent(name, "ms", why)
		return
	}
	v, qu := percentile(vals, q)
	note := ""
	if qu.used != q {
		note = fmt.Sprintf("p%.1f: fewer than 10 samples beyond p%g", qu.used, q)
	}
	m.add(name, v, "ms", len(vals), note)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(vals []float64) float64 {
	v, _ := percentile(vals, 50)
	return v
}

// print writes one human-readable line per metric.
func (m *metricSet) print(w *strings.Builder) {
	for _, x := range m.list {
		switch {
		case x.absent:
			fmt.Fprintf(w, "  %-34s absent  (%s)\n", x.name, x.note)
		default:
			line := fmt.Sprintf("  %-34s %.4f %s", x.name, x.value, x.unit)
			if x.n > 0 {
				line += fmt.Sprintf("  (n=%d)", x.n)
			}
			if x.note != "" {
				line += "  [" + x.note + "]"
			}
			w.WriteString(line + "\n")
		}
	}
}

// jsonMetrics is the result line's metrics object.
func (m *metricSet) jsonMetrics() map[string]map[string]any {
	out := map[string]map[string]any{}
	for _, x := range m.list {
		out[x.name] = map[string]any{"value": x.value, "unit": x.unit}
	}
	return out
}
