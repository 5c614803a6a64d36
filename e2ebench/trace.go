package main

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The traced-run collector. It reads the daemon's existing spans from
// GET /v1/traces/{id} and its counters from /metrics, and tolerates
// either changing shape: a span name or metric family it cannot find
// leaves that layer metric absent instead of failing the run.

// spanData mirrors the daemon's span JSON.
type spanData struct {
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs"`
}

// traceData is one request's daemon trace reduced to what the layer
// metrics need.
type traceData struct {
	total int // every span the daemon recorded, polls included
	spans []spanData
	self  []time.Duration // self time of spans[i]
	// window is the daemon's share of the request: from the first
	// server span to the end of the last span, leaving out the client's
	// polls and artifact downloads.
	window time.Duration
}

// maxTraceSpans is the daemon's per-trace span cap; a trace at the cap
// may have lost spans.
const maxTraceSpans = 512

// pullTrace fetches the request's trace. A trace that cannot be fetched,
// lacks its execution spans, or is at the span cap is retried briefly
// and then reported as missing (nil), never silently dropped.
func (p *phase) pullTrace(ctx context.Context, s *sample) *traceData {
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(5 * time.Millisecond)
		}
		var body struct {
			Spans []spanData `json:"spans"`
		}
		if _, err := p.c.call(ctx, "", http.MethodGet, "/v1/traces/"+s.traceID, nil, &body); err != nil {
			continue
		}
		if len(body.Spans) >= maxTraceSpans {
			return nil
		}
		if td := reduceTrace(body.Spans); td != nil && (!s.executed || td.has("job.execute") || td.has("turn.execute")) {
			return td
		}
	}
	return nil
}

// isClientCall reports spans of the client's polls and downloads.
func isClientCall(name string) bool { return strings.HasPrefix(name, "http GET ") }

// reduceTrace computes self times and the daemon window. It returns nil
// when the trace holds no server span for the submission.
func reduceTrace(all []spanData) *traceData {
	td := &traceData{total: len(all)}
	for _, sp := range all {
		if !isClientCall(sp.Name) {
			td.spans = append(td.spans, sp)
		}
	}
	if len(td.spans) == 0 {
		return nil
	}
	children := map[string][]int{}
	for i, sp := range td.spans {
		children[sp.ParentID] = append(children[sp.ParentID], i)
	}
	first, last := td.spans[0].Start, td.spans[0].Start
	td.self = make([]time.Duration, len(td.spans))
	for i, sp := range td.spans {
		td.self[i] = sp.Duration - covered(sp, td.spans, children[sp.SpanID])
		if sp.Start.Before(first) {
			first = sp.Start
		}
		if end := sp.Start.Add(sp.Duration); end.After(last) {
			last = end
		}
	}
	td.window = last.Sub(first)
	return td
}

// covered returns how much of parent's interval its children cover
// (the union of their intervals, clipped to the parent).
func covered(parent spanData, spans []spanData, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	pa, pb := parent.Start, parent.Start.Add(parent.Duration)
	var ivs []iv
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].Start.Add(spans[k].Duration)
		if a.Before(pa) {
			a = pa
		}
		if b.After(pb) {
			b = pb
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		if i == 0 || v.a.After(cur.b) {
			total += cur.b.Sub(cur.a)
			cur = v
			continue
		}
		if v.b.After(cur.b) {
			cur.b = v.b
		}
	}
	return total + cur.b.Sub(cur.a)
}

func (td *traceData) has(name string) bool {
	for _, sp := range td.spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}

// layerOf maps a daemon span to the repo module that owns its self time.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "http "), name == "queue.wait", name == "turn.wait",
		name == "job.execute", name == "turn.execute", name == "store.write", name == "wal.append":
		return "service"
	case strings.HasPrefix(name, "chatvis."):
		return "chatvis"
	case strings.HasPrefix(name, "llm."):
		return "llm"
	case strings.HasPrefix(name, "plan."):
		return "plan"
	case name == "script.exec":
		return "pvpython"
	case strings.HasPrefix(name, "stage."), strings.HasPrefix(name, "engine."):
		return "pvsim"
	case strings.HasPrefix(name, "render."):
		return "render"
	}
	return "other"
}

// layers lists the layers in report order.
var layers = []string{"service", "chatvis", "llm", "plan", "pvpython", "pvsim", "render", "other"}

// promMetrics is one /metrics scrape: unlabelled samples by family name.
type promMetrics map[string]float64

func scrapeMetrics(ctx context.Context, c *client) (promMetrics, error) {
	raw, err := c.call(ctx, "", http.MethodGet, "/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	out := promMetrics{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// delta returns after-before for a counter family, or false when either
// scrape lacks it.
func delta(before, after promMetrics, name string) (float64, bool) {
	a, ok1 := after[name]
	b, ok2 := before[name]
	return a - b, ok1 && ok2
}
