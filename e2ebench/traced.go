package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
)

// stageClasses are the filter classes whose stage self time is reported
// one by one.
var stageClasses = []string{"Contour", "Slice", "Clip", "Threshold", "Glyph", "StreamTracer", "Tube", "Delaunay3D"}

// runTraced splits the run into an untraced and a traced half, each on
// a fresh daemon with the same generated requests: the untraced half is
// the baseline for the tracing overhead, the traced half gives the
// per-layer numbers.
func runTraced(ctx context.Context, o options, bin, runDir string, m meta) (*result, error) {
	half := float64(o.seconds) / 2
	d, _, err := launch(ctx, bin, filepath.Join(runDir, "untraced"))
	if err != nil {
		return nil, err
	}
	base, err := runPhase(ctx, o, d, half, false)
	d.stop()
	if err != nil {
		return nil, err
	}
	d, _, err = launch(ctx, bin, filepath.Join(runDir, "traced"))
	if err != nil {
		return nil, err
	}
	tr, err := runPhase(ctx, o, d, half, true)
	d.stop()
	if err != nil {
		return nil, err
	}
	layer, extra := layerMetrics(o, base, tr)
	return report(o, m, append(base.samples, tr.samples...), layer, extra), nil
}

// traceAgg accumulates span figures over the traced requests.
type traceAgg struct {
	traced, missing int
	dur, self       map[string][]float64 // by span name, ms
	layerSelf       map[string]float64   // by layer, ms summed
	spans           int
	gap, residual   []float64 // ms per request
}

func aggregate(samples []*sample) *traceAgg {
	a := &traceAgg{dur: map[string][]float64{}, self: map[string][]float64{},
		layerSelf: map[string]float64{}}
	for _, s := range samples {
		if s.failed {
			continue
		}
		td := s.trace
		if td == nil {
			a.missing++
			continue
		}
		a.traced++
		a.spans += td.total
		var selfSum float64
		for i, sp := range td.spans {
			name := sp.Name
			if strings.HasPrefix(name, "http POST ") {
				name = "http POST"
			}
			a.dur[name] = append(a.dur[name], ms(sp.Duration))
			a.self[name] = append(a.self[name], ms(td.self[i]))
			a.layerSelf[layerOf(sp.Name)] += ms(td.self[i])
			selfSum += ms(td.self[i])
		}
		a.gap = append(a.gap, ms(s.latency-td.window))
		a.residual = append(a.residual, ms(td.window)-selfSum)
	}
	return a
}

// sumPrefix totals count or ms over span names with the prefix.
func (a *traceAgg) sumPrefix(prefix string, byName map[string][]float64) (n int, total float64) {
	for name, vals := range byName {
		if strings.HasPrefix(name, prefix) {
			n += len(vals)
			for _, v := range vals {
				total += v
			}
		}
	}
	return n, total
}

func concat(lists ...[]float64) []float64 {
	var out []float64
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// layerMetrics derives every per-layer metric. base is the untraced
// half, tr the traced half.
func layerMetrics(o options, base, tr *phaseResult) (*metricSet, *metricSet) {
	a := aggregate(tr.samples)
	var m metricSet
	reqs := float64(len(tr.samples))
	perReq := func(name, unit string, v float64, ok bool, why string) {
		if !ok {
			m.absent(name, unit, why)
			return
		}
		m.add(name, v, unit, 0, "")
	}
	// Span-derived per-request figures are over requests with a trace.
	nt := float64(a.traced)
	spanPerReq := func(name, prefix string) {
		n, _ := a.sumPrefix(prefix, a.dur)
		perReq(name, "count/req", float64(n)/nt, nt > 0, "no traced requests")
	}
	counterDelta := func(family string) (float64, bool) {
		if tr.scrapeErr != nil {
			return 0, false
		}
		return delta(tr.before, tr.after, family)
	}
	noSpan := func(span string) string { return "no " + span + " spans" }

	// service
	m.addPercentile("service.submit_ms_p50", a.dur["http POST"], 50, noSpan("http POST"))
	waits := concat(a.dur["queue.wait"], a.dur["turn.wait"])
	m.addPercentile("service.wait_ms_p50", waits, 50, noSpan("queue.wait/turn.wait"))
	m.addPercentile("service.wait_ms_p95", waits, 95, noSpan("queue.wait/turn.wait"))
	m.addPercentile("service.store_write_ms_p50", a.dur["store.write"], 50, noSpan("store.write"))
	m.addPercentile("service.wal_append_ms_p50", a.dur["wal.append"], 50, noSpan("wal.append"))
	submitted, ok1 := counterDelta("chatvis_jobs_submitted_total")
	hits, ok2 := counterDelta("chatvis_jobs_store_hits_total")
	m.ratio("service.store_hit_ratio", "ratio", hits, submitted, ok1 && ok2, "no job submissions")
	coalesced, ok3 := counterDelta("chatvis_jobs_coalesced_total")
	m.ratio("service.coalesced_ratio", "ratio", coalesced, submitted, ok1 && ok3, "no job submissions")
	executed, ok4 := counterDelta("chatvis_jobs_executed_total")
	turns, ok5 := counterDelta("chatvis_session_turns_total")
	perReq("service.exec_per_req", "count/req", (executed+turns)/reqs, ok4 && ok5, "no executions counters")
	m.addPercentile("service.client_gap_ms_p50", a.gap, 50, "no traced requests")

	// chatvis
	m.addPercentile("chatvis.turn_self_ms_p50", a.self["chatvis.turn"], 50, noSpan("chatvis.turn"))
	var iters []float64
	for _, s := range tr.samples {
		if s.executed && !s.failed {
			iters = append(iters, float64(s.iterations))
		}
	}
	perReq("chatvis.iterations_per_req", "count/req", mean(iters), len(iters) > 0, "no executed requests")
	m.addPercentile("chatvis.seed_exec_ms_p50", a.dur["engine.seed-exec"], 50, noSpan("engine.seed-exec"))
	m.addPercentile("chatvis.exec_plan_ms_p50", a.dur["engine.exec-plan"], 50, noSpan("engine.exec-plan"))
	spanPerReq("chatvis.stage_execs_per_req", "stage.")
	spanPerReq("chatvis.renders_per_req", "render.view")

	// llm
	spanPerReq("llm.calls_per_req", "llm.")
	_, llmMS := a.sumPrefix("llm.", a.dur)
	perReq("llm.busy_ms_per_req", "ms/req", llmMS/nt, nt > 0, "no traced requests")
	spanPerReq("llm.repair_calls_per_req", "llm.repair")
	calls, ok6 := counterDelta("chatvis_llm_calls_total")
	llmHits, ok7 := counterDelta("chatvis_llm_cache_hits_total")
	m.ratio("llm.cache_hit_ratio", "ratio", llmHits, calls, ok6 && ok7, "no llm counters")

	// plan
	m.addPercentile("plan.validate_ms_p50", a.dur["plan.validate"], 50, noSpan("plan.validate"))
	spanPerReq("plan.validations_per_req", "plan.validate")

	// pvpython + pypy
	m.addPercentile("pvpython.exec_self_ms_p50", a.self["script.exec"], 50, noSpan("script.exec"))
	spanPerReq("pvpython.execs_per_req", "script.exec")

	// pvsim + filters + data + par
	_, stageMS := a.sumPrefix("stage.", a.self)
	perReq("pvsim.stage_ms_per_req", "ms/req", stageMS/nt, nt > 0, "no traced requests")
	for _, cls := range stageClasses {
		m.addPercentile("pvsim.stage."+cls+"_ms_p50", a.self["stage."+cls], 50, noSpan("stage."+cls))
	}
	dsHits, ok8 := counterDelta("chatvis_dataset_cache_hits_total")
	dsMiss, ok9 := counterDelta("chatvis_dataset_cache_misses_total")
	m.ratio("data.cache_hit_ratio", "ratio", dsHits, dsHits+dsMiss, ok8 && ok9, "no dataset cache counters")
	busy, ok10 := counterDelta("chatvis_par_busy_seconds_total")
	perReq("par.busy_ms_per_req", "ms/req", busy*1000/reqs, ok10, "no par counters")
	imb, ok11 := tr.after["chatvis_par_imbalance_avg"]
	perReq("par.imbalance_avg", "ratio", imb, ok11 && tr.scrapeErr == nil, "no par gauge")

	// render
	m.addPercentile("render.view_ms_p50", a.self["render.view"], 50, noSpan("render.view"))
	m.addPercentile("render.view_ms_p95", a.self["render.view"], 95, noSpan("render.view"))
	spanPerReq("render.views_per_req", "render.view")

	// runtime
	gcs, ok12 := counterDelta("chatvis_go_gc_cycles_total")
	perReq("runtime.gc_cycles_per_req", "count/req", gcs/reqs, ok12, "no gc counter")
	pause, ok13 := counterDelta("chatvis_go_gc_pause_seconds_total")
	perReq("runtime.gc_pause_ms_per_req", "ms/req", pause*1000/reqs, ok13, "no gc pause counter")
	heap, ok14 := tr.after["chatvis_go_heap_alloc_bytes"]
	perReq("runtime.heap_alloc_mb_end", "MB", heap/(1<<20), ok14 && tr.scrapeErr == nil, "no heap gauge")

	// per-layer self time, which with the client gap accounts for the
	// client-observed latency
	for _, l := range layers[:len(layers)-1] { // "other" shows in the accounting only
		perReq(l+".self_ms_per_req", "ms/req", a.layerSelf[l]/nt, nt > 0, "no traced requests")
	}

	// obs: the instrument itself
	untracedP50, _ := percentile(latencies(base.samples, ""), 50)
	tracedP50, _ := percentile(latencies(tr.samples, ""), 50)
	if untracedP50 > 0 && tracedP50 > 0 {
		m.add("obs.trace_overhead_pct", 100*(tracedP50-untracedP50)/untracedP50, "%", 0,
			fmt.Sprintf("traced p50 %.3f ms vs untraced %.3f ms", tracedP50, untracedP50))
	} else {
		m.absent("obs.trace_overhead_pct", "%", "a half without requests")
	}
	perReq("obs.spans_per_req", "count/req", float64(a.spans)/nt, nt > 0, "no traced requests")
	m.add("obs.traces_missing", float64(a.missing), "count", 0, "")
	perReq("obs.residual_ms_per_req", "ms/req", mean(a.residual), len(a.residual) > 0, "no traced requests")

	// session-edit's turn split, from the untraced half
	addTurnSplit(&m, base.samples, o.workload)

	var extra metricSet
	accounting(&extra, a, tr.samples)
	return &m, &extra
}

// accounting adds the latency decomposition the traced run promises:
// mean client latency = layer self times + client gap + residual.
func accounting(m *metricSet, a *traceAgg, samples []*sample) {
	var lat []float64
	for _, s := range samples {
		if !s.failed && s.trace != nil {
			lat = append(lat, ms(s.latency))
		}
	}
	if len(lat) == 0 {
		return
	}
	nt := float64(len(lat))
	total := mean(lat)
	m.add("accounting.latency_mean_ms", total, "ms", len(lat), "traced requests")
	var sum float64
	for _, l := range layers {
		v := a.layerSelf[l] / nt
		sum += v
		m.add("accounting."+l+"_self_ms", v, "ms", 0, fmt.Sprintf("%.1f%% of latency", 100*v/total))
	}
	gap := mean(a.gap)
	res := mean(a.residual)
	m.add("accounting.client_gap_ms", gap, "ms", 0, fmt.Sprintf("%.1f%% of latency", 100*gap/total))
	m.add("accounting.residual_ms", res, "ms", 0,
		"daemon window minus summed self times; negative where sibling spans overlap")
	m.add("accounting.layers_ms", sum, "ms", 0,
		fmt.Sprintf("layers + gap + residual = %.3f ms", sum+gap+res))
}
