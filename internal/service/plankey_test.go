package service

import (
	"context"
	"strings"
	"testing"
	"time"

	"chatvis/internal/chatvis"
	"chatvis/internal/llm"
	"chatvis/internal/plan"
	"chatvis/internal/pvsim"
)

// TestKeyCoalescesOnPlanMeaning: the v2 key hashes the intended plan, so
// textually different requests that mean the same pipeline share a key —
// and any semantic difference still separates them.
func TestKeyCoalescesOnPlanMeaning(t *testing.T) {
	a := JobRequest{Prompt: `Please generate a ParaView Python script for the following operations. Read in the file named ml-100.vtk. Generate an isosurface of the variable var0 at value 0.5. Save a screenshot of the result in the filename x.png. The rendered view and saved screenshot should be 480 x 270 pixels.`}
	// Same meaning, different wording, punctuation and whitespace.
	b := JobRequest{Prompt: `Read in the file  named ml-100.vtk, please!  Now generate an isosurface of the variable var0 at value 0.5. Then save a screenshot of the result in the filename x.png. The rendered view and saved screenshot should be 480 x 270 pixels.`}
	if Key(a) != Key(b) {
		t.Error("semantically identical prompts should coalesce on plan hash")
	}
	// A different isovalue is a different plan.
	c := JobRequest{Prompt: strings.Replace(a.Prompt, "value 0.5", "value 0.7", 1)}
	if Key(a) == Key(c) {
		t.Error("different isovalue must not coalesce")
	}
	// Sanity: the two equal-key prompts really parse to the same plan.
	pa := plan.Normalize(llm.WritePlan(llm.ParseIntent(a.Prompt)), pvsim.PlanSchema())
	pb := plan.Normalize(llm.WritePlan(llm.ParseIntent(b.Prompt)), pvsim.PlanSchema())
	if !pa.Equal(pb) {
		t.Fatal("test prompts no longer parse to the same plan")
	}
}

// TestKeySeparatesSpecsTheIntendedPlanAbstracts: the intended plan
// leaves the streamline vector array to engine auto-detection, but
// ungrounded writers react to it — prompts differing only in that array
// must not share a key.
func TestKeySeparatesSpecsTheIntendedPlanAbstracts(t *testing.T) {
	v := JobRequest{Prompt: `Read in the file named 'disk.ex2'. Trace streamlines of the V data array seeded from a default point cloud. Save a screenshot of the result in the filename s.png. The rendered view and saved screenshot should be 480 x 270 pixels.`}
	b := JobRequest{Prompt: strings.Replace(v.Prompt, "the V data array", "the B data array", 1)}
	if Key(v) == Key(b) {
		t.Error("different streamline vector arrays must not coalesce")
	}
}

// TestKeyFallsBackToRawPromptText: prompts with no parseable operations
// must not all collapse onto the empty plan.
func TestKeyFallsBackToRawPromptText(t *testing.T) {
	a := JobRequest{Prompt: "hello there"}
	b := JobRequest{Prompt: "hello where"}
	if Key(a) == Key(b) {
		t.Error("op-less prompts must key on their raw text")
	}
	if Key(a) != Key(a) {
		t.Error("key must be deterministic")
	}
}

// TestQueueCoalescesRewordedPrompts: end-to-end, a reworded submission
// attaches to the in-flight job instead of executing again.
func TestQueueCoalescesRewordedPrompts(t *testing.T) {
	p := &stubPipeline{gate: make(chan struct{})}
	q := newTestQueue(t, p, 1)
	promptA := `Read in the file named ml-100.vtk. Generate an isosurface of the variable var0 at value 0.5. Save a screenshot of the result in the filename x.png. The rendered view and saved screenshot should be 480 x 270 pixels.`
	promptB := `Please read in the file named ml-100.vtk!   Generate an isosurface of the variable var0 at value 0.5. Save a screenshot of the result in the filename x.png. The rendered view and saved screenshot should be 480 x 270 pixels.`
	jobA, outcomeA, err := q.Submit(JobRequest{Prompt: promptA})
	if err != nil {
		t.Fatal(err)
	}
	if outcomeA != SubmissionNew {
		t.Fatalf("first submission = %s", outcomeA)
	}
	jobB, outcomeB, err := q.Submit(JobRequest{Prompt: promptB})
	if err != nil {
		t.Fatal(err)
	}
	if outcomeB != SubmissionCoalesced {
		t.Fatalf("reworded submission = %s, want coalesced", outcomeB)
	}
	if jobA != jobB {
		t.Error("reworded prompts should share the job")
	}
	close(p.gate)
	waitJob(t, jobA)
	if got := p.executions.Load(); got != 1 {
		t.Errorf("executions = %d, want 1", got)
	}
}

// TestResultCarriesPlan: the stored result inlines the normalized plan
// and its hash, so GET /v1/jobs/{id} serves the typed DAG.
func TestResultCarriesPlan(t *testing.T) {
	pipeline := func(ctx context.Context, req JobRequest, _ pvsim.ScreenshotSink) (*chatvis.Artifact, error) {
		script := `from paraview.simple import *
reader = LegacyVTKReader(FileNames=['ml-100.vtk'])
contour1 = Contour(Input=reader)
contour1.Isosurfaces = [0.5]
view = GetActiveViewOrCreate('RenderView')
d = Show(contour1, view)
SaveScreenshot('x.png', view, ImageResolution=[100, 100])
`
		compiled, err := plan.Compile(script, pvsim.PlanSchema())
		if err != nil {
			return nil, err
		}
		return &chatvis.Artifact{
			UserPrompt:  req.Prompt,
			FinalScript: script,
			Success:     true,
			Plan:        plan.Normalize(compiled.Plan, pvsim.PlanSchema()),
			Iterations:  []chatvis.Iteration{{Script: script}},
		}, nil
	}
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(QueueOptions{Workers: 1, Pipeline: pipeline, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = q.Shutdown(ctx)
	}()
	job, _, err := q.Submit(JobRequest{Prompt: "plan result test"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)
	res := job.Result()
	if res == nil {
		t.Fatalf("job did not succeed: %s %s", job.Status(), job.Err())
	}
	if res.PlanHash == "" {
		t.Error("result missing plan hash")
	}
	if len(res.Plan) == 0 {
		t.Fatal("result missing inlined plan JSON")
	}
	decoded, err := plan.Decode(res.Plan)
	if err != nil {
		t.Fatalf("inlined plan does not decode: %v", err)
	}
	if decoded.Hash() != res.PlanHash {
		t.Error("inlined plan hash mismatch")
	}
	if decoded.FindClass("Contour") < 0 {
		t.Error("plan lost the Contour stage")
	}
}
