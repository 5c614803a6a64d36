package main

import (
	"bytes"
	"context"
	"fmt"
	"image/png"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop concurrency: one client per core of the
// 2-core reference box, all in this one generator process.
const clients = 2

// sample is one timed request (a job or a turn) and its outcome.
type sample struct {
	kind       string // "job", "first" or "edit"
	label      string // what was asked, for failure reports
	latency    time.Duration
	submission string
	iterations int
	traceID    string
	executed   bool // this request ran the pipeline (not a store hit or coalesced)
	failed     bool
	reason     string

	// Deferred checks, run after the timed phase so decoding and
	// ground-truth renders do not compete with the daemon.
	png           []byte
	width, height int
	groundTruth   string

	answer [2]string  // script and screenshot hashes of a job's answer
	trace  *traceData // traced runs only
}

func (s *sample) fail(format string, args ...any) {
	if !s.failed {
		s.failed, s.reason = true, fmt.Sprintf(format, args...)
	}
}

// phase is one timed closed loop against one daemon.
type phase struct {
	d        *daemon
	c        *client
	gen      *generator
	traced   bool
	deadline time.Time

	mu      sync.Mutex
	samples []*sample
	genErr  error
	// primed holds repeat-mix's pool results: script and screenshot
	// hashes every store hit of that entry must return.
	primed []primedResult
	// rssAfter is the request count at which the daemon's peak RSS is
	// read; rssKB holds it once read.
	rssAfter int
	rssKB    atomic.Int64
}

// rssAfter fixes, per workload, how many requests a run serves before
// the daemon's peak RSS is read. The daemon's RSS grows with the
// requests it has served, so reading it after a fixed count compares
// the same work on fast and slow machines. Each count is below what the
// slowest observed 20 s run on the 2-core reference box completed.
var rssAfter = map[string]int{wlCold: 400, wlRepeat: 1000, wlSession: 300}

type primedResult struct {
	scriptHash string
	shotHash   string
}

// nextUnit hands out units in generator order until the deadline.
func (p *phase) nextUnit() (unit, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.genErr != nil || time.Now().After(p.deadline) {
		return unit{}, false
	}
	u, err := p.gen.next()
	if err != nil {
		p.genErr = err
		return unit{}, false
	}
	return u, true
}

func (p *phase) record(s *sample) {
	p.mu.Lock()
	p.samples = append(p.samples, s)
	n := len(p.samples)
	p.mu.Unlock()
	if n == p.rssAfter {
		if st, err := p.d.stats(); err == nil {
			p.rssKB.Store(st.vmHWMKB)
		}
	}
}

// loop runs the closed loop: each client sends its next unit only after
// the previous one completed, until the deadline passes.
func (p *phase) loop(ctx context.Context) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				u, ok := p.nextUnit()
				if !ok {
					return
				}
				p.runUnit(ctx, u)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func (p *phase) runUnit(ctx context.Context, u unit) {
	switch u.Kind {
	case unitJob:
		p.record(p.runJob(ctx, u.Job))
	case unitPair:
		var a, b *sample
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); a = p.runJob(ctx, u.Job) }()
		go func() { defer wg.Done(); b = p.runJob(ctx, u.Job) }()
		wg.Wait()
		checkPair(a, b)
		p.record(a)
		p.record(b)
	case unitSession:
		for _, s := range p.runSession(ctx, u) {
			p.record(s)
		}
	}
}

// newTraceID returns a fresh trace ID in traced runs and "" otherwise.
func (p *phase) newTraceID() string {
	if !p.traced {
		return ""
	}
	return randHex(16)
}

// runJob sends one job, checks what can be checked at once, fetches its
// artifacts like a user would, and in traced runs pulls its trace.
func (p *phase) runJob(ctx context.Context, j *jobSpec) *sample {
	s := &sample{kind: "job", label: j.Scenario + "/" + j.Model + " " + j.Variant,
		traceID: p.newTraceID(), width: j.Width, height: j.Height, groundTruth: j.GroundTruth}
	v, submission, lat, err := p.c.submitJob(ctx, s.traceID, j)
	s.latency, s.submission = lat, submission
	s.executed = submission == "new"
	switch {
	case err != nil:
		s.fail("%v", err)
	case v.Status != "succeeded":
		s.fail("job %s %s: %s", v.ID, v.Status, v.Error)
	case v.Result == nil || !v.Result.Success:
		s.fail("job %s: success=false", v.ID)
	case len(v.Result.ScreenshotHashes) == 0:
		s.fail("job %s: no screenshot", v.ID)
	}
	if s.failed {
		return s
	}
	res := v.Result
	s.iterations = res.Iterations
	shot := res.ScreenshotHashes[len(res.ScreenshotHashes)-1]
	switch j.Expect {
	case expectStore:
		want := p.primed[j.Reuses]
		if submission != "store" {
			s.fail("%s repeat of pool entry %d: submission %q, want store", j.Variant, j.Reuses, submission)
		} else if res.ScriptHash != want.scriptHash || shot != want.shotHash {
			s.fail("%s repeat of pool entry %d: hashes differ from the primed execution", j.Variant, j.Reuses)
		}
	case expectNew:
		if submission != "new" {
			s.fail("%s job: submission %q, want new", j.Variant, submission)
		}
	}
	p.fetchArtifacts(ctx, s, res.ScriptHash, shot)
	s.answer = [2]string{res.ScriptHash, shot}
	return s
}

// fetchArtifacts downloads the script and the screenshot.
func (p *phase) fetchArtifacts(ctx context.Context, s *sample, script, shot string) {
	if _, err := p.c.artifact(ctx, s.traceID, script); err != nil {
		s.fail("script artifact: %v", err)
		return
	}
	img, err := p.c.artifact(ctx, s.traceID, shot)
	if err != nil {
		s.fail("screenshot artifact: %v", err)
		return
	}
	s.png = img
	if p.traced {
		s.trace = p.pullTrace(ctx, s)
	}
}

// checkPair verifies that both posts of a concurrent identical pair were
// answered by one execution: the same script and screenshot, and at most
// one of the two submissions executed. (The second post is answered
// "coalesced" while the first is in flight, "store" if it arrives after.)
func checkPair(a, b *sample) {
	if a.failed || b.failed {
		return
	}
	if a.answer != b.answer {
		a.fail("identical pair answered with different artifacts")
		b.fail("identical pair answered with different artifacts")
		return
	}
	if a.executed && b.executed {
		a.fail("identical pair executed twice")
	}
}

// runSession opens a session and sends its turns in order.
func (p *phase) runSession(ctx context.Context, u unit) []*sample {
	var out []*sample
	var sess struct {
		ID string `json:"id"`
	}
	if _, err := p.c.call(ctx, "", http.MethodPost, "/v1/sessions",
		map[string]any{"model": u.Model, "width": u.Turns[0].Width, "height": u.Turns[0].Height}, &sess); err != nil {
		s := &sample{kind: "first"}
		s.fail("creating session: %v", err)
		return []*sample{s}
	}
	for i, t := range u.Turns {
		s := &sample{kind: "edit", label: u.Track + " " + t.Kind, traceID: p.newTraceID(),
			width: t.Width, height: t.Height, executed: true}
		if i == 0 {
			s.kind = "first"
		}
		v, lat, err := p.c.submitTurn(ctx, s.traceID, sess.ID, t.Prompt)
		s.latency, s.iterations = lat, v.Iterations
		switch {
		case err != nil:
			s.fail("%v", err)
		case v.Status != "succeeded":
			s.fail("%s turn %s %s: %s", t.Kind, v.ID, v.Status, v.Error)
		case !v.Success:
			s.fail("%s turn %s (%q): success=false", t.Kind, v.ID, t.Prompt)
		case len(v.ScreenshotHashes) == 0:
			s.fail("%s turn %s: no screenshot", t.Kind, v.ID)
		case t.Delta >= 0 && v.ExecutionsDelta != t.Delta:
			s.fail("%s turn %s (%q): executions_delta %d, want %d", t.Kind, v.ID, t.Prompt, v.ExecutionsDelta, t.Delta)
		case t.ViewOnly && changesFilter(v.ChangedStages):
			s.fail("%s turn %s (%q) changed pipeline stages %v", t.Kind, v.ID, t.Prompt, v.ChangedStages)
		}
		if !s.failed {
			p.fetchArtifacts(ctx, s, v.ScriptHash, v.ScreenshotHashes[len(v.ScreenshotHashes)-1])
		}
		out = append(out, s)
	}
	return out
}

// changesFilter reports whether a turn changed a pipeline filter or
// source, as opposed to a display, the view or the screenshot (named
// "<source>Display", "renderView<n>" and "screenshot<n>" by the plan).
func changesFilter(stages []string) bool {
	for _, id := range stages {
		if !strings.HasSuffix(id, "Display") && !strings.HasPrefix(id, "renderView") && !strings.HasPrefix(id, "screenshot") {
			return true
		}
	}
	return false
}

// prime runs repeat-mix's pool once before timing and records each
// entry's artifacts.
func (p *phase) prime(ctx context.Context) error {
	for i, j := range p.gen.pool {
		v, _, _, err := p.c.submitJob(ctx, "", j)
		if err != nil {
			return fmt.Errorf("priming pool entry %d: %w", i, err)
		}
		if v.Status != "succeeded" || v.Result == nil || !v.Result.Success || len(v.Result.ScreenshotHashes) == 0 {
			return fmt.Errorf("priming pool entry %d (%s, %s): %s %s", i, j.Scenario, j.Model, v.Status, v.Error)
		}
		hs := v.Result.ScreenshotHashes
		p.primed = append(p.primed, primedResult{scriptHash: v.Result.ScriptHash, shotHash: hs[len(hs)-1]})
	}
	return nil
}

// checkImages runs the deferred checks: every screenshot decodes as a
// PNG at the requested size and, where the request carries a ground
// truth, matches it under the eval harness's image rule.
func checkImages(ctx context.Context, samples []*sample, gt *groundTruther) error {
	work := make(chan *sample)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				checkImage(s, gt)
			}
		}()
	}
	for _, s := range samples {
		if ctx.Err() != nil {
			break
		}
		if !s.failed && s.png != nil {
			work <- s
		}
	}
	close(work)
	wg.Wait()
	return ctx.Err()
}

func checkImage(s *sample, gt *groundTruther) {
	img, err := png.Decode(bytes.NewReader(s.png))
	s.png = nil
	if err != nil {
		s.fail("screenshot is not a PNG: %v", err)
		return
	}
	if b := img.Bounds(); b.Dx() != s.width || b.Dy() != s.height {
		s.fail("screenshot is %dx%d, requested %dx%d", b.Dx(), b.Dy(), s.width, s.height)
		return
	}
	if s.groundTruth != "" {
		if err := gt.matches(s.groundTruth, img); err != nil {
			s.fail("%s: %v", s.label, err)
		}
	}
}
