package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// pollInterval is how often a client asks for a job's or turn's status.
// It bounds the client-side share of a request's latency.
const pollInterval = 2 * time.Millisecond

// client drives the daemon's public HTTP API. With tracing on, every
// logical request (a job or a turn) gets its own trace ID, and every
// HTTP call under it its own client span sent as the W3C traceparent,
// so the daemon's spans for that request land in one trace.
type client struct {
	base   string
	hc     *http.Client
	traced bool
}

func newClient(base string, traced bool) *client {
	return &client{
		base:   base,
		traced: traced,
		hc: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 8},
		},
	}
}

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic(err) // crypto/rand does not fail on Linux
	}
	return hex.EncodeToString(b)
}

// call sends one request and decodes a JSON answer into out (when out is
// non-nil) or returns the raw body.
func (c *client) call(ctx context.Context, traceID, method, path string, body, out any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.traced && traceID != "" {
		req.Header.Set("Traceparent", "00-"+traceID+"-"+randHex(8)+"-01")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode >= 300 {
		return raw, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return raw, fmt.Errorf("%s %s: decoding: %w", method, path, err)
		}
	}
	return raw, nil
}

// jobView is the part of the daemon's job JSON the benchmark reads.
type jobView struct {
	ID         string `json:"id"`
	Status     string `json:"status"`
	Error      string `json:"error"`
	Submission string `json:"submission"`
	Result     *struct {
		Success          bool     `json:"success"`
		Iterations       int      `json:"iterations"`
		ScriptHash       string   `json:"script_hash"`
		ScreenshotHashes []string `json:"screenshot_hashes"`
	} `json:"result"`
}

func terminal(status string) bool {
	return status == "succeeded" || status == "failed" || status == "canceled"
}

// turnView is the part of the daemon's turn JSON the benchmark reads.
type turnView struct {
	ID               string   `json:"id"`
	Status           string   `json:"status"`
	Error            string   `json:"error"`
	Success          bool     `json:"success"`
	ExecutionsDelta  int64    `json:"executions_delta"`
	ChangedStages    []string `json:"changed_stages"`
	Iterations       int      `json:"iterations"`
	ScriptHash       string   `json:"script_hash"`
	ScreenshotHashes []string `json:"screenshot_hashes"`
}

// submitJob posts a job and polls until it is terminal. It returns the
// final view, the submission outcome and the client-observed latency.
func (c *client) submitJob(ctx context.Context, traceID string, j *jobSpec) (jobView, string, time.Duration, error) {
	body := map[string]any{"prompt": j.Prompt, "model": j.Model, "width": j.Width, "height": j.Height}
	start := time.Now()
	var v jobView
	if _, err := c.call(ctx, traceID, http.MethodPost, "/v1/jobs", body, &v); err != nil {
		return v, "", time.Since(start), err
	}
	submission := v.Submission
	for !terminal(v.Status) {
		time.Sleep(pollInterval)
		if _, err := c.call(ctx, traceID, http.MethodGet, "/v1/jobs/"+v.ID, nil, &v); err != nil {
			return v, submission, time.Since(start), err
		}
	}
	return v, submission, time.Since(start), nil
}

// submitTurn posts a session turn and polls until it is terminal.
func (c *client) submitTurn(ctx context.Context, traceID, session, prompt string) (turnView, time.Duration, error) {
	start := time.Now()
	var v turnView
	if _, err := c.call(ctx, traceID, http.MethodPost, "/v1/sessions/"+session+"/turns",
		map[string]string{"prompt": prompt}, &v); err != nil {
		return v, time.Since(start), err
	}
	for !terminal(v.Status) {
		time.Sleep(pollInterval)
		if _, err := c.call(ctx, traceID, http.MethodGet, "/v1/sessions/"+session+"/turns/"+v.ID, nil, &v); err != nil {
			return v, time.Since(start), err
		}
	}
	return v, time.Since(start), nil
}

// artifact fetches one object from the content-addressed store.
func (c *client) artifact(ctx context.Context, traceID, hash string) ([]byte, error) {
	return c.call(ctx, traceID, http.MethodGet, "/v1/artifacts/"+hash, nil, nil)
}
