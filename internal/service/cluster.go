package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"chatvis/internal/cluster"
	"chatvis/internal/obs"
)

// Cluster mode for the HTTP surface: any node accepts any request and
// either serves it or relays it to the shard-ring owner. Sessions
// route by session ID, jobs by their content key (so identical prompts
// from different nodes meet at one owner and coalesce), and job IDs
// carry the accepting node's name so status polls route back to it.
//
//	GET /v1/cluster/result/{key}?wait_ms=N
//
// is the peer-to-peer coalescing endpoint: "do you have (or are you
// running) the work for this key?" — long-polling an in-flight job up
// to wait_ms before answering from the store or 404ing.

// Forwarding headers.
const (
	// ForwardedHeader marks a relayed request with the relaying node's
	// ID; its presence is the forwarding loop guard, and relayed
	// requests skip tenant quotas (the front door already charged).
	ForwardedHeader = "X-ChatVis-Forwarded"
	// TenantHeader names the tenant a request is billed to; absent
	// means the shared "default" tenant.
	TenantHeader  = "X-ChatVis-Tenant"
	defaultTenant = "default"
)

// WithCluster attaches fleet membership, enabling request forwarding
// and the cluster endpoints, and declares the cluster metric families;
// returns the server for chaining.
func (s *Server) WithCluster(c *cluster.Cluster) *Server {
	s.cluster = c
	if c == nil {
		return s
	}
	reg := s.metrics
	reg.Value("chatvis_cluster_peers_healthy", "Fleet members currently alive (self included).", obs.Gauge, func() float64 { return float64(c.HealthyCount()) })
	reg.Value("chatvis_cluster_forwards_total", "Requests relayed to their shard-ring owner.", obs.Counter, func() float64 { return float64(s.forwards.Load()) })
	reg.Value("chatvis_cluster_remote_coalesce_hits_total", "Executions avoided via a peer's stored or in-flight result.", obs.Counter, func() float64 { return float64(s.queue.m.remoteHits.Load()) })
	return s
}

// WithQuotas attaches front-door tenant quotas and, when they are
// enabled, declares the throttle counter; returns the server for
// chaining.
func (s *Server) WithQuotas(q *cluster.Quotas) *Server {
	s.quotas = q
	if q.Enabled() {
		s.metrics.Value("chatvis_tenant_throttled_total", "Requests rejected by tenant quotas (429).", obs.Counter, func() float64 { return float64(q.Throttled()) })
	}
	return s
}

// WithWAL attaches the node's WAL so /healthz and /metrics can report
// its backlog and replays; returns the server for chaining.
func (s *Server) WithWAL(w *cluster.WAL) *Server {
	s.wal = w
	if w != nil {
		s.metrics.Value("chatvis_wal_replayed_total", "Jobs and session turns re-submitted by the queue's one WAL replay after a restart.", obs.Counter, func() float64 { return float64(s.queue.m.replayed.Load()) })
		s.metrics.Value("chatvis_wal_backlog", "WAL entries accepted but not yet finished.", obs.Gauge, func() float64 { return float64(w.Backlog()) })
	}
	return s
}

// forwarded reports whether the request already crossed one hop.
func forwarded(r *http.Request) bool {
	return r.Header.Get(ForwardedHeader) != ""
}

// ownerPeer resolves the healthy ring owner for a key when it is a
// peer (not us) and the request is eligible for relaying.
func (s *Server) ownerPeer(r *http.Request, key string) (cluster.Peer, bool) {
	if s.cluster == nil || forwarded(r) {
		return cluster.Peer{}, false
	}
	owner, ok := s.cluster.Owner(key)
	if !ok || s.cluster.IsSelf(owner) {
		return cluster.Peer{}, false
	}
	return owner, true
}

// jobNode extracts the accepting node's ID from a namespaced job ID
// ("job-<node>-<seq>"); ok is false for local un-namespaced IDs.
func jobNode(jobID string) (string, bool) {
	rest, found := strings.CutPrefix(jobID, "job-")
	if !found {
		return "", false
	}
	i := strings.LastIndex(rest, "-")
	if i <= 0 {
		return "", false
	}
	if _, err := strconv.Atoi(rest[i+1:]); err != nil {
		return "", false
	}
	return rest[:i], true
}

// jobPeer resolves the peer a namespaced job ID belongs to, when it is
// not us.
func (s *Server) jobPeer(r *http.Request, jobID string) (cluster.Peer, bool) {
	if s.cluster == nil || forwarded(r) {
		return cluster.Peer{}, false
	}
	node, ok := jobNode(jobID)
	if !ok || node == s.cluster.Self().ID {
		return cluster.Peer{}, false
	}
	peer, ok := s.cluster.Peer(node)
	if !ok || !s.cluster.Alive(peer.ID) {
		return cluster.Peer{}, false
	}
	return peer, true
}

// proxy relays the request to a peer and copies the response through.
// Reports whether the relay succeeded; on a transport error the peer
// is marked down (so routing fails over immediately) and the caller
// falls back to handling the request locally.
func (s *Server) proxy(w http.ResponseWriter, r *http.Request, peer cluster.Peer, body []byte) bool {
	ctx, span := obs.Start(r.Context(), "cluster.forward")
	span.SetAttr("peer", peer.ID)
	span.SetAttr("path", r.URL.Path)
	defer span.End()
	url := "http://" + peer.Addr + r.URL.RequestURI()
	req, err := http.NewRequestWithContext(ctx, r.Method, url, bytes.NewReader(body))
	if err != nil {
		span.SetError(err)
		return false
	}
	req.Header = r.Header.Clone()
	req.Header.Set(ForwardedHeader, s.cluster.Self().ID)
	// Propagate the trace across the hop: the peer's middleware parses
	// this and parents its server span under our forward span, so one
	// trace ID spans both nodes.
	if tp := obs.Traceparent(ctx); tp != "" {
		req.Header.Set(obs.TraceparentHeader, tp)
	}
	resp, err := s.cluster.Client().Do(req)
	if err != nil {
		span.SetError(err)
		s.cluster.MarkAlive(peer.ID, false)
		return false
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		if http.CanonicalHeaderKey(k) == obs.TraceHeader {
			// Our middleware already stamped the trace header; copying the
			// peer's (identical) value would duplicate it.
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set(ForwardedHeader, peer.ID)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	s.forwards.Add(1)
	return true
}

// tenantOf names the tenant a request bills to.
func tenantOf(r *http.Request) string {
	if t := strings.TrimSpace(r.Header.Get(TenantHeader)); t != "" {
		return t
	}
	return defaultTenant
}

// admitTenant enforces the front-door quota. On throttle it writes the
// 429 (with Retry-After) and returns ok=false; otherwise the caller
// must invoke release once the admitted work finishes. Relayed
// requests pass freely — their front door already charged the tenant.
func (s *Server) admitTenant(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if !s.quotas.Enabled() || forwarded(r) {
		return func() {}, true
	}
	tenant := tenantOf(r)
	release, retryAfter, ok := s.quotas.Admit(tenant)
	if !ok {
		secs := int(retryAfter / time.Second)
		if retryAfter%time.Second != 0 || secs == 0 {
			secs++
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, r, http.StatusTooManyRequests,
			"tenant %q over quota, retry in %ds", tenant, secs)
		return nil, false
	}
	return release, true
}

// clusterResultWaitCap bounds the long-poll a peer may request from
// /v1/cluster/result.
const clusterResultWaitCap = 30 * time.Second

// handleClusterResult answers a peer's coalescing probe for a job key:
// a stored result wins immediately; an in-flight job is awaited up to
// ?wait_ms; otherwise 404.
func (s *Server) handleClusterResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if res, ok := s.store.GetResult(key); ok {
		writeJSON(w, http.StatusOK, res)
		return
	}
	wait := time.Duration(0)
	if ms, err := strconv.Atoi(r.URL.Query().Get("wait_ms")); err == nil && ms > 0 {
		wait = time.Duration(ms) * time.Millisecond
		if wait > clusterResultWaitCap {
			wait = clusterResultWaitCap
		}
	}
	if job, ok := s.queue.InFlight(key); ok && wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-job.Done():
			if res, ok := s.store.GetResult(key); ok {
				writeJSON(w, http.StatusOK, res)
				return
			}
		case <-timer.C:
		case <-r.Context().Done():
		}
	}
	writeError(w, r, http.StatusNotFound, "no result for key %q", key)
}

// remoteLookupWait is how long a worker waits on the owner's in-flight
// execution before giving up and running the job itself. A duplicate
// execution is merely wasteful, never wrong — both sides write the
// same content-addressed result.
const remoteLookupWait = 20 * time.Second

// ClusterLookup returns the Queue's RemoteLookup hook: before a worker
// executes a job, ask the shard-ring owner of its key for a stored or
// in-flight result. A transport error marks the owner down and retries
// once against the key's next preference, covering the follower whose
// owner died mid-poll.
func ClusterLookup(c *cluster.Cluster) func(ctx context.Context, key string) (*Result, bool) {
	return func(ctx context.Context, key string) (*Result, bool) {
		for attempt := 0; attempt < 2; attempt++ {
			owner, ok := c.Owner(key)
			if !ok || c.IsSelf(owner) {
				return nil, false // we are the owner: just execute
			}
			res, retry := askPeer(ctx, c, owner, key)
			if res != nil {
				return res, true
			}
			if !retry {
				return nil, false
			}
		}
		return nil, false
	}
}

// askPeer performs one coalescing probe. retry is true only on a
// transport error (the owner was marked down and routing changed).
func askPeer(ctx context.Context, c *cluster.Cluster, owner cluster.Peer, key string) (res *Result, retry bool) {
	ctx, cancel := context.WithTimeout(ctx, remoteLookupWait+5*time.Second)
	defer cancel()
	ctx, span := obs.Start(ctx, "cluster.remote-lookup")
	span.SetAttr("peer", owner.ID)
	defer span.End()
	url := fmt.Sprintf("http://%s/v1/cluster/result/%s?wait_ms=%d",
		owner.Addr, key, remoteLookupWait.Milliseconds())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		span.SetError(err)
		return nil, false
	}
	// Carry the trace to the owner so its long-poll handling records
	// into the same trace as our worker.
	if tp := obs.Traceparent(ctx); tp != "" {
		req.Header.Set(obs.TraceparentHeader, tp)
	}
	resp, err := c.Client().Do(req)
	if err != nil {
		span.SetError(err)
		c.MarkAlive(owner.ID, false)
		return nil, ctx.Err() == nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	var r Result
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&r); err != nil || r.Key != key {
		return nil, false
	}
	return &r, false
}
