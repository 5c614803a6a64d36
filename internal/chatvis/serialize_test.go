package chatvis

import (
	"bytes"
	"testing"
	"time"

	"chatvis/internal/errext"
	"chatvis/internal/llm"
)

// testArtifact is a two-round session artifact whose stages took the
// given durations.
func testArtifact(rewrite, generate, exec time.Duration) *Artifact {
	return &Artifact{
		UserPrompt:      "make an isosurface",
		GeneratedPrompt: "step-by-step prompt",
		Iterations: []Iteration{
			{
				Script: "bad script",
				Output: "AttributeError: nope",
				Errors: []errext.ErrorReport{{Kind: "AttributeError", Message: "nope", Line: 3}},
			},
			{Script: "good script", Output: ""},
		},
		FinalScript: "good script",
		Screenshots: []string{"/tmp/out/iso.png"},
		Success:     true,
		Trace: Trace{Stages: []StageTrace{
			{Stage: StageRewrite, Model: "gpt-4", Duration: rewrite,
				Usage: llm.Usage{PromptTokens: 10, CompletionTokens: 20}, Attempts: 1},
			{Stage: StageGenerate, Model: "gpt-4", Duration: generate, CacheHit: true},
			{Stage: StageExec + "-1", Duration: exec},
		}},
	}
}

// TestArtifactEncodeDecodeRoundTrip checks that an artifact survives a
// round trip in everything but the stage durations, and that two runs
// which differ only in stage timing encode to identical bytes: the
// artifact store is content-addressed, and a timing in the object would
// give every run its own hash.
func TestArtifactEncodeDecodeRoundTrip(t *testing.T) {
	art := testArtifact(3*time.Millisecond, 5*time.Millisecond, time.Millisecond)
	b, err := EncodeArtifact(art)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeArtifact(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.UserPrompt != art.UserPrompt || got.FinalScript != art.FinalScript ||
		!got.Success || len(got.Iterations) != 2 || len(got.Screenshots) != 1 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if len(got.Trace.Stages) != 3 {
		t.Fatalf("trace stages = %d", len(got.Trace.Stages))
	}
	s0 := got.Trace.Stages[0]
	if s0.Stage != StageRewrite || s0.Model != "gpt-4" ||
		s0.Duration != 0 || s0.Usage.PromptTokens != 10 {
		t.Errorf("stage 0 mangled: %+v", s0)
	}
	if !got.Trace.Stages[1].CacheHit {
		t.Error("cache provenance lost")
	}
	if got.Iterations[0].Errors[0].Kind != "AttributeError" {
		t.Error("iteration error reports lost")
	}

	other, err := EncodeArtifact(testArtifact(7*time.Second, time.Nanosecond, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, other) {
		t.Errorf("artifacts differing only in stage durations encode differently:\n%s\n---\n%s", b, other)
	}
	if bytes.Contains(b, []byte("duration_ns")) || bytes.Contains(b, []byte("trace_id")) {
		t.Errorf("encoded artifact carries a run-specific field:\n%s", b)
	}
}

func TestDecodeArtifactRejectsBadInput(t *testing.T) {
	if _, err := DecodeArtifact([]byte("not json")); err == nil {
		t.Error("garbage must not decode")
	}
	if _, err := DecodeArtifact([]byte(`{"version": 99, "artifact": {}}`)); err == nil {
		t.Error("unknown version must not decode")
	}
	if _, err := DecodeArtifact([]byte(`{"version": 1}`)); err == nil {
		t.Error("empty envelope must not decode")
	}
	if _, err := EncodeArtifact(nil); err == nil {
		t.Error("nil artifact must not encode")
	}
}
