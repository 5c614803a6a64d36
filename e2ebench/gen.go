package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"chatvis/internal/eval"
)

// The workload generator. Every request a run sends is a pure function
// of (workload, seed, unit index): the same seed yields a byte-identical
// request list, and the daemon sees only the generated HTTP bodies.
// Units are handed out in index order to whichever client is free, so
// the list is fixed while the client that sends each unit is not.

// Workload names.
const (
	wlCold    = "cold-mix"
	wlRepeat  = "repeat-mix"
	wlSession = "session-edit"
)

var workloads = []string{wlCold, wlRepeat, wlSession}

// models are the assistant back ends cold-mix draws from: gpt-4 repairs
// its plan before executing, gpt-3.5-turbo goes through the paper's
// exec-error repair loop, oracle succeeds on the first try.
var models = []string{"gpt-4", "gpt-3.5-turbo", "oracle"}

// Unit kinds.
const (
	unitJob     = "job"     // one POST /v1/jobs
	unitPair    = "pair"    // two identical POST /v1/jobs sent at once
	unitSession = "session" // POST /v1/sessions, then its turns in order
)

// Expected submission outcomes a job carries.
const (
	expectNew   = "new"
	expectStore = "store"
	expectPair  = "pair" // one execution shared by both posts of a pair
)

// jobSpec is one POST /v1/jobs body plus what the generator knows about
// its outcome.
type jobSpec struct {
	Scenario string `json:"scenario"`
	Model    string `json:"model"`
	Prompt   string `json:"prompt"`
	Width    int    `json:"width"`
	Height   int    `json:"height"`
	// GroundTruth is the scenario's reference script with the same
	// substituted parameters (cold-mix only).
	GroundTruth string `json:"ground_truth,omitempty"`
	// Expect is the submission outcome the generator fixes.
	Expect string `json:"expect"`
	// Reuses indexes the primed pool entry whose execution a store hit
	// must return (-1 when none).
	Reuses int `json:"reuses"`
	// Variant names how the job was derived ("fresh", "exact",
	// "reworded", "render-only").
	Variant string `json:"variant"`
	// params lists the drawn knob values, part of the job's key.
	params string
}

// turnSpec is one session turn.
type turnSpec struct {
	Kind   string `json:"kind"` // "first" or an edit kind
	Prompt string `json:"prompt"`
	Width  int    `json:"width"`
	Height int    `json:"height"`
	// Delta is the executions_delta the turn must report (-1: unchecked,
	// as on first turns, whose stage reuse depends on earlier sessions).
	Delta int64 `json:"delta"`
	// ViewOnly marks edits that may change only displays, the view and
	// the screenshot, never a pipeline filter.
	ViewOnly bool `json:"view_only,omitempty"`
}

// unit is one closed-loop step of a client.
type unit struct {
	Kind  string     `json:"kind"`
	Job   *jobSpec   `json:"job,omitempty"`
	Track string     `json:"track,omitempty"`
	Model string     `json:"model,omitempty"`
	Turns []turnSpec `json:"turns,omitempty"`
}

// knob is one seed-drawn filter parameter of a scenario: the fragment
// that carries it in the prompt and in the ground-truth script, each
// with "%s" where the value goes and the scenario's default value.
type knob struct {
	name              string
	prompt, promptDef string
	gt, gtDef         string
	lo, hi            float64
	decimals          int
}

func (k knob) draw(r *rand.Rand) string {
	v := k.lo + r.Float64()*(k.hi-k.lo)
	return fmt.Sprintf("%.*f", k.decimals, v)
}

// scenarioKnobs lists the filter parameters the intent parser reads from
// each scenario's prompt. volume, stream and glyph take none; they vary
// by resolution only, so their Delaunay3D, StreamTracer, Tube and Glyph
// outputs are shared through the daemon's dataset cache. The slice
// scenario keeps the paper's x=0 plane: off that plane some (x, value)
// pairs render a blank screenshot, ground truth included (README.md).
var scenarioKnobs = map[string][]knob{
	"iso": {
		{name: "iso", prompt: "at value %s.", promptDef: "0.5", gt: "Isosurfaces = [%s]", gtDef: "0.5", lo: 0.3, hi: 0.7, decimals: 3},
	},
	"slice": {
		{name: "contour", prompt: "at the value %s.", promptDef: "0.5", gt: "Isosurfaces = [%s]", gtDef: "0.5", lo: 0.3, hi: 0.7, decimals: 3},
	},
	"delaunay": {
		{name: "clip-x", prompt: "y-z plane at x=%s,", promptDef: "0", gt: "ClipType.Origin = [%s, 0.0, 0.0]", gtDef: "0.0", lo: -0.3, hi: 0.3, decimals: 3},
	},
	"clip": {
		{name: "clip-x", prompt: "y-z plane at x=%s,", promptDef: "0", gt: "ClipType.Origin = [%s, 0.0, 0.0]", gtDef: "0.0", lo: -0.4, hi: 0.4, decimals: 3},
	},
	"threshold": {
		{name: "lower", prompt: "between %s and", promptDef: "500", gt: "LowerThreshold = %s", gtDef: "500", lo: 450, hi: 550, decimals: 1},
		{name: "upper", prompt: "and %s. Color", promptDef: "900", gt: "UpperThreshold = %s", gtDef: "900", lo: 850, hi: 950, decimals: 1},
	},
	"sliceclip": {
		{name: "clip-x", prompt: "y-z plane at x=%s,", promptDef: "0", gt: "ClipType.Origin = [%s, 0.0, 0.0]", gtDef: "0.0", lo: -0.3, hi: 0.3, decimals: 3},
		{name: "slice-z", prompt: "x-y plane at z=%s.", promptDef: "0", gt: "SliceType.Origin = [0.0, 0.0, %s]", gtDef: "0.0", lo: -0.4, hi: 0.4, decimals: 3},
	},
	"isovalues": {
		{name: "iso-lo", prompt: "values %s and", promptDef: "0.3", gt: "Isosurfaces = [%s,", gtDef: "0.3", lo: 0.2, hi: 0.45, decimals: 3},
		{name: "iso-hi", prompt: "and %s. Color", promptDef: "0.7", gt: ", %s]", gtDef: "0.7", lo: 0.55, hi: 0.8, decimals: 3},
	},
	"glyphslice": {
		{name: "slice-z", prompt: "x-y plane at z=%s.", promptDef: "1", gt: "SliceType.Origin = [0, 0, %s]", gtDef: "1", lo: 0.5, hi: 1.5, decimals: 3},
	},
	"threshcontour": {
		{name: "lower", prompt: "between %s and", promptDef: "400", gt: "LowerThreshold = %s", gtDef: "400", lo: 380, hi: 420, decimals: 1},
		{name: "upper", prompt: "and %s. Take", promptDef: "800", gt: "UpperThreshold = %s", gtDef: "800", lo: 780, hi: 820, decimals: 1},
		{name: "contour", prompt: "at the value %s through", promptDef: "600", gt: "Isosurfaces = [%s]", gtDef: "600", lo: 560, hi: 640, decimals: 1},
	},
}

// substitute replaces the single occurrence of the knob fragment at its
// default value with the same fragment at v.
func substitute(text, pattern, def, v string) (string, error) {
	old := fmt.Sprintf(pattern, def)
	if n := strings.Count(text, old); n != 1 {
		return "", fmt.Errorf("fragment %q occurs %d times", old, n)
	}
	return strings.Replace(text, old, fmt.Sprintf(pattern, v), 1), nil
}

// drawResolution picks a view size near 320x180. Scenarios without
// knobs stay distinct through it.
func drawResolution(r *rand.Rand) (int, int) {
	return 280 + r.Intn(81), 160 + r.Intn(41)
}

// generator produces a workload's units in index order.
type generator struct {
	workload string
	r        *rand.Rand
	scns     []eval.Scenario
	// seen holds every job key (scenario, model, parameters, size) or
	// session parameter value already generated, so no two fresh
	// requests share a coalescing key or a filter stage.
	seen map[string]bool
	// pairs and tracks hold what is left of the current shuffled
	// (scenario, model) or track block, kinds of the repeat-kind block.
	pairs, tracks, kinds []int
	// pool is repeat-mix's primed set of distinct jobs, and popularity
	// the cumulative share of repeats each entry draws.
	pool       []*jobSpec
	popularity []float64
	// err is set once a session knob's values are used up.
	err error
}

func newGenerator(workload string, seed int64) (*generator, error) {
	g := &generator{
		workload: workload,
		r:        rand.New(rand.NewSource(seed)),
		scns:     eval.Scenarios(),
		seen:     map[string]bool{},
	}
	// Session values at a knob's default are left out: other requests
	// (a model's first try, the intent parser's fallback) compute those
	// stages too, so an edit to one could find it in the dataset cache.
	for _, v := range []string{"iso=0.5000", "clip-x=0.0000", "clip-x=-0.0000", "slice-z=0.0000", "slice-z=-0.0000", "disk-z=1.0000"} {
		g.seen[v] = true
	}
	switch workload {
	case wlCold, wlSession:
	case wlRepeat:
		// The primed pool is one full (scenario, model) block, so every
		// seed primes the same mix of distinct jobs.
		pool := len(g.scns) * len(models)
		for i := 0; i < pool; i++ {
			j, err := g.freshJob()
			if err != nil {
				return nil, err
			}
			j.Expect, j.Variant = expectNew, "prime"
			g.pool = append(g.pool, j)
		}
		g.popularity = zipfCDF(pool, zipfAlpha)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloads, ", "))
	}
	return g, nil
}

// next returns the next unit of the workload.
func (g *generator) next() (unit, error) {
	switch g.workload {
	case wlCold:
		j, err := g.freshJob()
		if err != nil {
			return unit{}, err
		}
		return unit{Kind: unitJob, Job: j}, nil
	case wlRepeat:
		return g.repeatUnit()
	default:
		return g.sessionUnit()
	}
}

// list generates the first n units; the determinism tests compare it.
func (g *generator) list(n int) ([]unit, error) {
	out := make([]unit, 0, n)
	for i := 0; i < n; i++ {
		u, err := g.next()
		if err != nil {
			return nil, err
		}
		out = append(out, u)
	}
	return out, nil
}

// nextInBlock draws from seed-shuffled blocks holding each of n choices
// once, so every run sends the same mix in a different order; *block
// holds what is left of the current one.
func (g *generator) nextInBlock(block *[]int, n int) int {
	if len(*block) == 0 {
		*block = g.r.Perm(n)
	}
	i := (*block)[0]
	*block = (*block)[1:]
	return i
}

// jobKey names a job's meaning: two jobs with the same key coalesce or
// hit the store.
func jobKey(scenario, model, params string, w, h int) string {
	return fmt.Sprintf("%s|%s|%dx%d%s", scenario, model, w, h, params)
}

// freshJob draws a (scenario, model) pair and parameters no earlier job
// of the run used.
func (g *generator) freshJob() (*jobSpec, error) {
	pick := g.nextInBlock(&g.pairs, len(g.scns)*len(models))
	scn, model := g.scns[pick/len(models)], models[pick%len(models)]
	for {
		w, h := drawResolution(g.r)
		prompt, gt := scn.UserPrompt(w, h), scn.GroundTruthScript(w, h)
		params := ""
		for _, k := range scenarioKnobs[scn.ID] {
			v := k.draw(g.r)
			var err error
			if prompt, err = substitute(prompt, k.prompt, k.promptDef, v); err != nil {
				return nil, fmt.Errorf("scenario %s prompt: %w", scn.ID, err)
			}
			if gt, err = substitute(gt, k.gt, k.gtDef, v); err != nil {
				return nil, fmt.Errorf("scenario %s ground truth: %w", scn.ID, err)
			}
			params += "|" + k.name + "=" + v
		}
		if key := jobKey(scn.ID, model, params, w, h); !g.seen[key] {
			g.seen[key] = true
			return &jobSpec{
				Scenario: scn.ID, Model: model, Prompt: prompt,
				Width: w, Height: h, GroundTruth: gt,
				Expect: expectNew, Reuses: -1, Variant: "fresh", params: params,
			}, nil
		}
	}
}

// rewordings change a prompt's text without changing its meaning; the
// daemon keys jobs by intended plan, so each still hits the store.
var rewordings = []func(string) string{
	func(p string) string { return "Hello! " + p },
	func(p string) string { return strings.ReplaceAll(p, ". ", ".  ") },
	func(p string) string { return p + " Thank you." },
	func(p string) string {
		return strings.Replace(p, "Please generate a ParaView Python script for the following operations.",
			"Write a ParaView Python script that does the following.", 1)
	},
}

// Repeat-mix unit kinds. No measurement of ChatVis traffic fixes their
// mix, so each of the four gets an equal share, drawn in shuffled blocks.
const (
	repeatExact = iota
	repeatReworded
	repeatPair
	repeatRenderOnly
	repeatKinds
)

// zipfAlpha is the popularity skew of repeats: the k-th most popular
// pool entry draws a share proportional to 1/k^alpha. Breslau et al.,
// "Web Caching and Zipf-like Distributions" (INFOCOM 1999), measured
// alpha between 0.64 and 0.83 for repeated web requests; ChatVis has no
// such measurement, so a value near the upper end is assumed.
const zipfAlpha = 0.8

// zipfCDF returns the cumulative Zipf shares of n ranks.
func zipfCDF(n int, alpha float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -alpha)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// popularEntry draws a pool index by popularity.
func (g *generator) popularEntry() int {
	i := sort.SearchFloat64s(g.popularity, g.r.Float64())
	return min(i, len(g.pool)-1)
}

func (g *generator) repeatUnit() (unit, error) {
	switch kind := g.nextInBlock(&g.kinds, repeatKinds); kind {
	case repeatExact, repeatReworded:
		i := g.popularEntry()
		src := g.pool[i]
		j := *src
		j.Expect, j.Reuses, j.Variant, j.GroundTruth = expectStore, i, "exact", ""
		if kind == repeatReworded {
			j.Prompt = rewordings[g.r.Intn(len(rewordings))](src.Prompt)
			j.Variant = "reworded"
		}
		return unit{Kind: unitJob, Job: &j}, nil
	case repeatPair:
		j, err := g.freshJob()
		if err != nil {
			return unit{}, err
		}
		j.Expect, j.GroundTruth = expectPair, ""
		return unit{Kind: unitPair, Job: j}, nil
	default:
		// Same filters as a pool entry at a new size: every stage comes
		// from the dataset cache and only the render runs.
		src := g.pool[g.r.Intn(len(g.pool))]
		for {
			w, h := drawResolution(g.r)
			key := jobKey(src.Scenario, src.Model, src.params, w, h)
			if g.seen[key] {
				continue
			}
			g.seen[key] = true
			j := *src
			j.Prompt = strings.Replace(src.Prompt,
				fmt.Sprintf("%d x %d pixels", src.Width, src.Height),
				fmt.Sprintf("%d x %d pixels", w, h), 1)
			j.Width, j.Height = w, h
			j.Expect, j.Reuses, j.Variant, j.GroundTruth = expectNew, -1, "render-only", ""
			return unit{Kind: unitJob, Job: &j}, nil
		}
	}
}

// Session tracks: the multi-turn evaluation track's first scenarios.
var tracks = []string{"iso", "clip", "glyph"}

// trackState is the generator's model of a session's current pipeline,
// enough to phrase each edit so it changes the plan and to fix how many
// stages the daemon must recompute for it.
type trackState struct {
	track    string
	w, h     int
	hasSlice bool
	view     string
	color    string
}

var (
	viewPhrases = map[string]string{
		"isometric": "Rotate the view to an isometric direction.",
		"+X":        "View the result in the +X direction.",
		"-Y":        "View the result in the -y direction.",
		"+Z":        "View the result in the +z direction.",
	}
	viewOrder  = []string{"isometric", "+X", "-Y", "+Z"}
	colorNames = []string{"red", "green", "blue", "yellow", "orange", "purple"}
)

// uniqueTries bounds the draws uniqueValue makes before it gives up on
// a range whose values are used up.
const uniqueTries = 1000

// uniqueValue draws a knob value not used by any earlier session of the
// run, so an edit's changed stages always miss the daemon's dataset
// cache and executions_delta is fixed by the edit kind alone. Four
// decimals give each range thousands of values; a run that uses them up
// records the error in g.err, and sessionUnit returns it.
func (g *generator) uniqueValue(name string, lo, hi float64) string {
	for i := 0; i < uniqueTries; i++ {
		v := fmt.Sprintf("%.4f", lo+g.r.Float64()*(hi-lo))
		if !g.seen[name+"="+v] {
			g.seen[name+"="+v] = true
			return v
		}
	}
	if g.err == nil {
		g.err = fmt.Errorf("no unused %s value left in [%g, %g]", name, lo, hi)
	}
	return ""
}

func (g *generator) sessionUnit() (unit, error) {
	track := tracks[g.nextInBlock(&g.tracks, len(tracks))]
	st := &trackState{track: track}
	st.w, st.h = drawResolution(g.r)
	scn, _ := eval.ScenarioByID(track)
	prompt := scn.UserPrompt(st.w, st.h)
	switch track {
	case "iso":
		v := g.uniqueValue("iso", 0.3, 0.7)
		prompt = strings.Replace(prompt, "at value 0.5.", "at value "+v+".", 1)
	case "clip":
		v := g.uniqueValue("clip-x", -0.4, 0.4)
		prompt = strings.Replace(prompt, "y-z plane at x=0,", "y-z plane at x="+v+",", 1)
		st.view = "isometric"
	case "glyph":
		st.view = "isometric"
	}
	u := unit{Kind: unitSession, Track: track, Model: "gpt-4",
		Turns: []turnSpec{{Kind: "first", Prompt: prompt, Width: st.w, Height: st.h, Delta: -1}}}
	for _, kind := range g.editKinds(track) {
		u.Turns = append(u.Turns, g.edit(st, kind))
	}
	return u, g.err
}

// trackEdits are the six edit kinds every session of a track sends: each kind the track admits once, plus a second plane or value
// move where a track admits only five. Every session sends the same
// kinds in a seed-shuffled order, so the mix of cheap view edits and
// re-executing edits is the same in every run and on every seed.
var trackEdits = map[string][]string{
	"iso":   {"colour", "camera", "resolution", "isovalue", "multi-value", "isovalue"},
	"clip":  {"colour", "camera", "resolution", "clip-move", "slice-the-clip", "slice-move"},
	"glyph": {"colour", "camera", "resolution", "glyphs-on-slice", "slice-move", "slice-move"},
}

// editKinds returns a track's edit kinds in a seed-shuffled order in
// which the edit that adds the slice comes before any slice move.
func (g *generator) editKinds(track string) []string {
	kinds := append([]string(nil), trackEdits[track]...)
	g.r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	first := -1
	for i, k := range kinds {
		switch k {
		case "slice-move":
			if first < 0 {
				first = i
			}
		case "slice-the-clip", "glyphs-on-slice":
			if first >= 0 {
				kinds[first], kinds[i] = kinds[i], kinds[first]
			}
			return kinds
		}
	}
	return kinds
}

// edit phrases one edit turn of the given kind and advances the state.
func (g *generator) edit(st *trackState, kind string) turnSpec {
	t := turnSpec{Kind: kind}
	t.ViewOnly = t.Kind == "colour" || t.Kind == "camera" || t.Kind == "resolution"
	switch t.Kind {
	case "colour":
		c := st.color
		for c == st.color {
			c = colorNames[g.r.Intn(len(colorNames))]
		}
		st.color = c
		// "the result", not "the contour": the edit grammar reads
		// "contour" as an isosurface at the default value (README.md).
		t.Prompt = fmt.Sprintf("Color the result %s.", c)
	case "camera":
		v := st.view
		for v == st.view {
			v = viewOrder[g.r.Intn(len(viewOrder))]
		}
		st.view = v
		t.Prompt = viewPhrases[v]
	case "resolution":
		w, h := st.w, st.h
		for w == st.w && h == st.h {
			w, h = drawResolution(g.r)
		}
		st.w, st.h = w, h
		t.Prompt = fmt.Sprintf("The rendered view and saved screenshot should be %d x %d pixels.", w, h)
	case "isovalue":
		t.Prompt = "Move the isovalue to " + g.uniqueValue("iso", 0.3, 0.7) + "."
		t.Delta = 1
	case "multi-value":
		t.Prompt = "Change the isosurfaces to the values " + g.uniqueValue("iso", 0.2, 0.45) +
			" and " + g.uniqueValue("iso", 0.55, 0.8) + "."
		t.Delta = 1
	case "clip-move":
		t.Prompt = "Move the clip plane to x=" + g.uniqueValue("clip-x", -0.4, 0.4) + "."
		t.Delta = 1
		if st.hasSlice {
			t.Delta = 2
		}
	case "slice-the-clip":
		t.Prompt = "Slice the clipped data in a plane parallel to the x-y plane at z=" +
			g.uniqueValue("slice-z", -0.4, 0.4) + "."
		t.Delta = 1
		st.hasSlice = true
	case "glyphs-on-slice":
		t.Prompt = "Slice the volume in a plane parallel to the x-y plane at z=" +
			g.uniqueValue("disk-z", 0.5, 1.5) + ". Put the glyphs on the slice."
		t.Delta = 2
		st.hasSlice = true
	case "slice-move":
		if st.track == "clip" {
			t.Prompt = "Move the slice to z=" + g.uniqueValue("slice-z", -0.4, 0.4) + "."
			t.Delta = 1
		} else {
			t.Prompt = "Move the slice to z=" + g.uniqueValue("disk-z", 0.5, 1.5) + "."
			t.Delta = 2
		}
	}
	t.Width, t.Height = st.w, st.h
	return t
}
