package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"chatvis/internal/chatvis"
	"chatvis/internal/data"
	"chatvis/internal/eval"
	"chatvis/internal/llm"
	"chatvis/internal/plan"
	"chatvis/internal/pvpython"
	"chatvis/internal/pvsim"
	"chatvis/internal/route"
)

// PipelineConfig wires the real ChatVis pipeline for the daemon.
type PipelineConfig struct {
	// DataDir holds (or receives, on first job) the input datasets.
	DataDir string
	// DataSize selects dataset resolution (DataSmall keeps the stub
	// profile fast; chatvisd -full switches to paper scale).
	DataSize eval.DataSize
	// Retries is the LLM middleware retry budget (default 1 = no retry).
	Retries int
	// Metrics receives every LLM call across all jobs and models; the
	// server surfaces its snapshot at /metrics.
	Metrics *llm.Metrics
	// DisableCache turns off the shared LLM response cache.
	DisableCache bool
	// DatasetCache, when set, is shared by every job's script
	// executions: concurrent jobs reading the same input file share one
	// in-memory dataset, and repair iterations only recompute the
	// pipeline stages whose content hash actually changed.
	DatasetCache *data.Cache
	// Router, when set, routes each assisted LLM call to the cheapest
	// profiled model clearing its task's bar (the request's configured
	// model stays the fallback for untagged or unprofiled traffic).
	// Unassisted jobs are never routed: there the model IS the request.
	Router *route.Router
}

// clientProvider lazily builds and caches the per-model middleware
// stacks (metrics → retry → cache) and prepares the input datasets once.
// One provider is shared by the one-shot job pipeline and the session
// factory so both surfaces hit the same response caches.
type clientProvider struct {
	cfg PipelineConfig

	dataOnce sync.Once
	dataErr  error

	mu      sync.Mutex
	clients map[string]llm.Client
	routed  map[string]llm.Client
}

func newClientProvider(cfg PipelineConfig) *clientProvider {
	if cfg.Retries < 1 {
		cfg.Retries = 1
	}
	return &clientProvider{cfg: cfg, clients: map[string]llm.Client{}}
}

func (p *clientProvider) ensureData() error {
	p.dataOnce.Do(func() {
		p.dataErr = eval.EnsureData(p.cfg.DataDir, p.cfg.DataSize)
	})
	if p.dataErr != nil {
		return fmt.Errorf("service: preparing datasets: %w", p.dataErr)
	}
	return nil
}

// stack returns the cached middleware stack (metrics → retry → cache)
// for one backend model, unrouted.
func (p *clientProvider) stack(model string) (llm.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.clients[model]; ok {
		return c, nil
	}
	base, err := llm.NewModel(model)
	if err != nil {
		return nil, err
	}
	mws := []llm.Middleware{}
	if p.cfg.Metrics != nil {
		mws = append(mws, llm.WithMetrics(p.cfg.Metrics))
	}
	mws = append(mws, llm.WithRetry(p.cfg.Retries, 50*time.Millisecond))
	if !p.cfg.DisableCache {
		mws = append(mws, llm.WithCache())
	}
	c := llm.Chain(base, mws...)
	p.clients[model] = c
	return c, nil
}

// client returns the serving client for a configured model: the plain
// middleware stack, wrapped by the router when routing is on. Routed
// calls resolve their picked model through the same per-model stacks,
// so routed traffic shares the response caches and metrics with
// everything else.
func (p *clientProvider) client(model string) (llm.Client, error) {
	if p.cfg.Router == nil {
		return p.stack(model)
	}
	p.mu.Lock()
	if c, ok := p.routed[model]; ok {
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	// Validate the fallback model eagerly so a bad configured name still
	// fails at job intake, not mid-session.
	if _, err := p.stack(model); err != nil {
		return nil, err
	}
	c := p.cfg.Router.Client(model, p.stack)
	p.mu.Lock()
	if p.routed == nil {
		p.routed = map[string]llm.Client{}
	}
	p.routed[model] = c
	p.mu.Unlock()
	return c, nil
}

// SessionFactory builds the conversational session behind one
// /v1/sessions resource: its own model stack, the sink its turns'
// screenshots go to, an optional seed plan and the number of turns
// before it (restart rehydration), and an observer for SSE streaming.
type SessionFactory func(req SessionRequest, shots pvsim.ScreenshotSink, seed *plan.Plan, turns int, observer func(chatvis.Event)) (*chatvis.Session, error)

// NewServingBackend builds both serving surfaces over ONE shared client
// provider: the session factory, and the job pipeline, which runs each
// job as a fresh one-turn session from that factory. A prompt already
// answered on either path hits the same per-model LLM response caches on
// the other. This is what chatvisd wires.
func NewServingBackend(cfg PipelineConfig) (PipelineFunc, SessionFactory) {
	prov := newClientProvider(cfg)
	factory := func(req SessionRequest, shots pvsim.ScreenshotSink, seed *plan.Plan, turns int, observer func(chatvis.Event)) (*chatvis.Session, error) {
		if err := prov.ensureData(); err != nil {
			return nil, err
		}
		req = req.withDefaults()
		var model llm.Client
		var err error
		if req.Unassisted {
			// Unassisted sessions measure the named model itself — never
			// routed.
			model, err = prov.stack(req.Model)
		} else {
			model, err = prov.client(req.Model)
		}
		if err != nil {
			return nil, err
		}
		runner := &pvpython.Runner{DataDir: prov.cfg.DataDir, Sink: shots, Cache: prov.cfg.DatasetCache}
		// Serving is plan-aware: candidate scripts are schema-validated
		// and repaired from structured diagnostics before the first
		// engine run, saving exec+repair rounds under load.
		opts := []chatvis.Option{
			chatvis.WithMaxIterations(req.MaxIterations),
			chatvis.WithFewShot(req.FewShot),
			chatvis.WithRewrite(!req.NoRewrite),
			chatvis.WithPlanValidation(true),
			chatvis.WithUnassisted(req.Unassisted),
		}
		if observer != nil {
			opts = append(opts, chatvis.WithObserver(observer))
		}
		return chatvis.NewSessionFrom(model, runner, seed, turns, opts...)
	}
	pipeline := func(ctx context.Context, req JobRequest, shots pvsim.ScreenshotSink) (*chatvis.Artifact, error) {
		s, err := factory(req.SessionRequest, shots, nil, 0, nil)
		if err != nil {
			return nil, err
		}
		turn, err := s.Turn(ctx, req.Prompt)
		if err != nil {
			return nil, err
		}
		return turn.Artifact, nil
	}
	return pipeline, factory
}
