package chatvis

import (
	"encoding/json"
	"fmt"
)

// Artifact serialization: the stable wire format chatvisd's artifact
// store persists and serves. The encoding is plain JSON over the
// exported fields (scripts, outputs, screenshots, the per-stage trace);
// a version tag guards against silently decoding a future layout. Two
// runs of the same request encode to the same bytes: stage durations and
// trace IDs live in spans, not here. Decoding ignores fields it does not
// know, so artifacts that still carry them (duration_ns, trace_id) read.

// artifactEnvelope wraps an Artifact with a format version for storage.
type artifactEnvelope struct {
	// Version identifies the encoding layout.
	Version int `json:"version"`
	// Artifact is the session payload.
	Artifact *Artifact `json:"artifact"`
}

// ArtifactEncodingVersion is the current artifact wire-format version.
const ArtifactEncodingVersion = 1

// EncodeArtifact serializes an artifact (with its trace) to versioned
// JSON, the byte form stored in chatvisd's content-addressed store.
func EncodeArtifact(a *Artifact) ([]byte, error) {
	if a == nil {
		return nil, fmt.Errorf("chatvis: cannot encode nil artifact")
	}
	return json.MarshalIndent(artifactEnvelope{
		Version:  ArtifactEncodingVersion,
		Artifact: a,
	}, "", "  ")
}

// DecodeArtifact deserializes bytes produced by EncodeArtifact.
func DecodeArtifact(b []byte) (*Artifact, error) {
	var env artifactEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("chatvis: decoding artifact: %w", err)
	}
	if env.Version != ArtifactEncodingVersion {
		return nil, fmt.Errorf("chatvis: unsupported artifact version %d", env.Version)
	}
	if env.Artifact == nil {
		return nil, fmt.Errorf("chatvis: artifact envelope is empty")
	}
	return env.Artifact, nil
}
