// Command chatvisd serves the ChatVis pipeline over HTTP: an async job
// queue with a worker pool, request coalescing (identical concurrent
// submissions share one pipeline execution; repeats are answered from
// the artifact store), and a content-addressed store for generated
// scripts, screenshots and session traces.
//
// Usage:
//
//	chatvisd -addr :8080 -data ./data -out ./out -workers 4 \
//	         -compute-workers 8 -dataset-cache-mb 256
//
// -workers sizes the job queue's worker pool, which runs jobs and session
// turns alike (-queue-cap bounds how many of either wait);
// -compute-workers sizes the parallel compute substrate each job
// executes on (filters, rasterizer, pipeline DAG); -dataset-cache-mb
// bounds the process-wide content-hash dataset cache shared across jobs.
// All three surface in /metrics.
//
// Endpoints: POST /v1/jobs, GET /v1/jobs/{id}, POST /v1/sessions,
// POST /v1/sessions/{id}/turns, GET /v1/sessions/{id},
// GET /v1/sessions/{id}/events (SSE), GET /v1/artifacts/{hash},
// GET /v1/scenarios, GET /v1/models, GET /v1/traces,
// GET /v1/traces/{id}, GET /healthz, GET /metrics. See the README and docs/sessions.md for
// curl examples. Sessions are persisted in the artifact store and
// survive restarts. SIGINT/SIGTERM drain in-flight jobs and turns
// before exiting; a second signal exits immediately.
//
// Observability (docs/observability.md): every request is traced end
// to end (across cluster hops) and retained behind /v1/traces;
// -log-level and -log-format select the structured slog output;
// -pprof-addr serves net/http/pprof on a separate listener; -version
// prints the build identity that /metrics exports as
// chatvis_build_info.
//
// Measured model routing (docs/routing.md) serves each assisted LLM
// call from the cheapest profiled model clearing its task's quality
// bar, escalating on repeated validation failure:
//
//	chatvisd -route -profiles-path profiles.json [-calibrate-on-start]
//
// Profiles come from cmd/calibrate (or -calibrate-on-start probes the
// registry at boot); GET /v1/models and the chatvis_route_* metric
// families expose the live route state.
//
// Cluster mode shards one logical service across several daemons:
//
//	chatvisd -addr :8081 -node-id n1 \
//	         -peers n1=127.0.0.1:8081,n2=127.0.0.1:8082,n3=127.0.0.1:8083 \
//	         -store /shared/store -wal-dir /local/n1/wal \
//	         -tenant-rps 5 -tenant-inflight 8
//
// Sessions route to their shard-ring owner by session ID, jobs by
// content key (identical prompts coalesce to one execution
// fleet-wide), and every accepted job or turn is written to a durable
// per-node WAL before it is acknowledged, so a crashed node replays
// exactly its unfinished work on restart. See docs/cluster.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux, served only on -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"chatvis/internal/cluster"
	"chatvis/internal/data"
	"chatvis/internal/eval"
	"chatvis/internal/llm"
	"chatvis/internal/obs"
	"chatvis/internal/par"
	"chatvis/internal/route"
	"chatvis/internal/service"
)

// version is stamped by the build ("-ldflags -X main.version=v1.2.3");
// the default falls back to module build info in obs.ReadBuildInfo.
var version = ""

// daemonConfig collects the daemon's tunables.
type daemonConfig struct {
	dataDir  string
	outDir   string
	storeDir string
	workers  int
	queueCap int
	retries  int
	full     bool
	noCache  bool
	// computeWorkers sizes the parallel compute substrate (filters,
	// rasterizer, pipeline DAG); 0 follows GOMAXPROCS.
	computeWorkers int
	// datasetCacheMB bounds the shared in-memory dataset cache; 0
	// disables it.
	datasetCacheMB int

	// nodeID and peers enable cluster mode: peers is the static fleet
	// membership ("id=host:port,..."), nodeID names this node in it.
	nodeID string
	peers  string
	// walDir holds the durable job/turn log (default <out>/wal; "none"
	// disables durability).
	walDir string
	// tenantRPS/tenantBurst/tenantInflight are the front-door tenant
	// quotas; zero values disable them.
	tenantRPS      float64
	tenantBurst    int
	tenantInflight int

	// routeOn enables measured model routing of assisted traffic;
	// profilesPath names the calibration store; calibrateOnStart probes
	// the registry at boot when the store is empty.
	routeOn          bool
	profilesPath     string
	calibrateOnStart bool

	// logger is the daemon's root structured logger (nil → slog.Default).
	logger *slog.Logger
	// traceCapacity bounds the in-process ring of retained traces; 0
	// takes the obs default.
	traceCapacity int
}

// daemon is one wired chatvisd instance: every subsystem main (and the
// smoke tests) needs a handle on.
type daemon struct {
	queue   *service.Queue
	server  *service.Server
	metrics *llm.Metrics
	tracer  *obs.Tracer
	cluster *cluster.Cluster // nil outside cluster mode
	wal     *cluster.WAL     // nil when durability is disabled
	// replayed counts the jobs and turns the WAL replay re-submitted at
	// boot.
	replayed int
}

// close releases background resources (probe loop, WAL segment); the
// queue, which runs jobs and session turns alike, is drained separately
// so callers control the budget.
func (d *daemon) close() {
	if d.cluster != nil {
		d.cluster.Stop()
	}
	if d.wal != nil {
		_ = d.wal.Close()
	}
}

// buildDaemon wires store → pipeline/sessions → queue → server, shared
// by main and the smoke tests. Persisted sessions are restored from the
// store, and the WAL's unfinished jobs and turns are re-submitted, so
// neither a drain nor a crash loses accepted work.
func buildDaemon(cfg daemonConfig) (*daemon, error) {
	if cfg.storeDir == "" {
		cfg.storeDir = filepath.Join(cfg.outDir, "store")
	}
	if cfg.walDir == "" {
		cfg.walDir = filepath.Join(cfg.outDir, "wal")
	}
	// The configured count shapes chunk boundaries (par.Workers) and is
	// honored verbatim; actual goroutine fan-out is clamped to the machine
	// by par.Parallelism — more workers than cores only adds scheduling
	// overhead (the 1-core baseline showed 8 requested workers running
	// 0.74x serial speed), so warn when the two diverge. /metrics reports
	// both (chatvis_compute_workers vs chatvis_par_parallelism).
	if max := runtime.GOMAXPROCS(0); cfg.computeWorkers > max {
		slog.Warn("-compute-workers exceeds GOMAXPROCS; goroutine fan-out is clamped",
			"requested", cfg.computeWorkers, "gomaxprocs", max)
	}
	par.SetWorkers(cfg.computeWorkers)
	var dsCache *data.Cache
	if cfg.datasetCacheMB > 0 {
		dsCache = data.NewCache(int64(cfg.datasetCacheMB) << 20)
	}
	store, err := service.NewStore(cfg.storeDir)
	if err != nil {
		return nil, err
	}

	var cl *cluster.Cluster
	if cfg.peers != "" {
		peers, err := cluster.ParsePeers(cfg.peers)
		if err != nil {
			return nil, err
		}
		cl, err = cluster.New(cluster.Config{NodeID: cfg.nodeID, Peers: peers})
		if err != nil {
			return nil, err
		}
	}
	var wal *cluster.WAL
	if cfg.walDir != "none" {
		wal, err = cluster.OpenWAL(cfg.walDir)
		if err != nil {
			return nil, err
		}
	}

	metrics := &llm.Metrics{}
	size := eval.DataSmall
	if cfg.full {
		size = eval.DataFull
	}
	var router *route.Router
	if cfg.routeOn {
		router, err = buildRouter(cfg)
		if err != nil {
			return nil, err
		}
	}
	pipeCfg := service.PipelineConfig{
		DataDir:      cfg.dataDir,
		DataSize:     size,
		Retries:      cfg.retries,
		Metrics:      metrics,
		DisableCache: cfg.noCache,
		DatasetCache: dsCache,
		Router:       router,
	}
	// One backend for both surfaces: jobs and session turns share the
	// per-model LLM response caches.
	pipeline, factory := service.NewServingBackend(pipeCfg)
	qopts := service.QueueOptions{
		Workers:  cfg.workers,
		Capacity: cfg.queueCap,
		Pipeline: pipeline,
		Store:    store,
		WAL:      wal,
	}
	if cl != nil {
		// Namespaced job IDs route status polls home; the remote lookup
		// collapses identical requests fleet-wide before executing.
		qopts.JobIDPrefix = "job-" + cl.Self().ID
		qopts.RemoteLookup = service.ClusterLookup(cl)
	}
	queue, err := service.NewQueue(qopts)
	if err != nil {
		return nil, err
	}
	sessions := service.NewSessions(queue, factory)
	if cl != nil {
		sessions.WithOwnership(func(id string) bool {
			owner, ok := cl.Owner(id)
			return ok && cl.IsSelf(owner)
		})
	}
	node := cfg.nodeID
	if node == "" {
		node = "chatvisd"
	}
	tracer := obs.NewTracer(node, cfg.traceCapacity)
	logger := cfg.logger
	if logger == nil {
		logger = slog.Default()
	}

	d := &daemon{
		queue: queue, metrics: metrics,
		tracer: tracer, cluster: cl, wal: wal,
	}
	sessions.Restore()
	d.replayed = queue.ReplayWAL()
	server := service.NewServer(queue, store, metrics).
		WithDatasetCache(dsCache).
		WithSessions(sessions).
		WithTracer(tracer).
		WithLogger(logger).
		WithBuildVersion(version)
	if router != nil {
		server.WithRouter(router, cfg.profilesPath)
	}
	if wal != nil {
		server.WithWAL(wal)
	}
	if cl != nil {
		server.WithCluster(cl)
	}
	if cfg.tenantRPS > 0 || cfg.tenantInflight > 0 {
		server.WithQuotas(cluster.NewQuotas(cluster.QuotaConfig{
			RPS:         cfg.tenantRPS,
			Burst:       cfg.tenantBurst,
			MaxInflight: cfg.tenantInflight,
		}))
	}
	d.server = server
	return d, nil
}

// buildRouter compiles the routing ladders from the profile store,
// probing the registry first when -calibrate-on-start finds the store
// empty. Routing with an empty store and no calibration mandate is a
// configuration error: silently serving everything from the fallback
// would look like routing while measuring nothing.
func buildRouter(cfg daemonConfig) (*route.Router, error) {
	store, err := route.OpenProfileStore(cfg.profilesPath)
	if err != nil {
		return nil, err
	}
	if store.Len() == 0 {
		if !cfg.calibrateOnStart {
			return nil, fmt.Errorf("routing enabled but profile store %s is empty; run cmd/calibrate or pass -calibrate-on-start", cfg.profilesPath)
		}
		size := eval.DataSmall
		if cfg.full {
			size = eval.DataFull
		}
		records, err := route.Calibrate(context.Background(), route.CalibrateConfig{
			Eval: eval.Config{
				DataDir:  cfg.dataDir,
				OutDir:   filepath.Join(cfg.outDir, "calibration"),
				DataSize: size,
			},
			Log: func(format string, args ...interface{}) {
				slog.Info("calibrate: " + fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			return nil, fmt.Errorf("calibrate-on-start: %w", err)
		}
		if err := store.Append(records); err != nil {
			return nil, err
		}
		slog.Info("calibrated model profiles", "records", len(records), "path", store.Path())
	}
	return route.NewRouter(store.Latest(), nil), nil
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		dataDir  = flag.String("data", "data", "directory for input datasets (generated on demand)")
		outDir   = flag.String("out", "out", "root directory for the artifact store and the WAL (the daemon writes no per-request files)")
		storeDir = flag.String("store", "", "artifact store directory (default <out>/store)")
		workers  = flag.Int("workers", runtime.NumCPU(), "worker pool size shared by jobs and session turns")
		queueCap = flag.Int("queue-cap", 256, "max queued (not yet running) jobs and session turns")
		retries  = flag.Int("retries", 1, "LLM call attempts per stage")
		full     = flag.Bool("full", false, "paper-scale datasets")
		noCache  = flag.Bool("no-cache", false, "disable the shared LLM response cache")
		drainFor = flag.Duration("drain", 30*time.Second, "graceful shutdown budget before in-flight jobs are canceled")

		computeWorkers = flag.Int("compute-workers", 0,
			"worker-pool size for filters/rasterizer/pipeline execution (0 = GOMAXPROCS; fan-out clamped to GOMAXPROCS, chunk shaping follows the configured value)")
		datasetCacheMB = flag.Int("dataset-cache-mb", 256,
			"in-memory dataset cache shared across jobs, in MiB (0 disables)")

		nodeID = flag.String("node-id", "", "this node's name in the -peers list (cluster mode)")
		peers  = flag.String("peers", "",
			"static fleet membership as id=host:port,... (enables cluster mode; all nodes must share -store)")
		walDir = flag.String("wal-dir", "",
			"write-ahead log directory for accepted jobs/turns (default <out>/wal; \"none\" disables)")

		tenantRPS = flag.Float64("tenant-rps", 0,
			"per-tenant sustained submissions/sec at the front door (0 disables quotas)")
		tenantBurst = flag.Int("tenant-burst", 0,
			"per-tenant burst allowance (default ceil(tenant-rps))")
		tenantInflight = flag.Int("tenant-inflight", 0,
			"per-tenant cap on concurrently executing submissions (0 = unlimited)")

		routeOn = flag.Bool("route", false,
			"route assisted LLM calls to the cheapest profiled model clearing each task's bar")
		profilesPath = flag.String("profiles-path", "profiles.json",
			"model profile store written by cmd/calibrate (versioned JSON)")
		calibrateOnStart = flag.Bool("calibrate-on-start", false,
			"probe the model registry at boot when -route finds an empty profile store")

		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		pprofAddr = flag.String("pprof-addr", "",
			"listen address for the net/http/pprof profiling endpoints (empty disables)")
		traceCap = flag.Int("trace-capacity", 0,
			"finished traces retained in memory for GET /v1/traces (0 = default)")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *showVersion {
		bi := obs.ReadBuildInfo(version)
		fmt.Printf("chatvisd %s %s\n", bi.Version, bi.GoVersion)
		return
	}

	logger := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	slog.SetDefault(logger)

	if *pprofAddr != "" {
		// net/http/pprof registers on DefaultServeMux; serving that mux on
		// a separate listener keeps profiling off the public API port.
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, http.DefaultServeMux); err != nil {
				logger.Error("pprof server", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// After the first signal starts the drain, unregister the
		// handler so a second Ctrl-C kills the process immediately.
		<-ctx.Done()
		stop()
	}()

	d, err := buildDaemon(daemonConfig{
		dataDir:          *dataDir,
		outDir:           *outDir,
		storeDir:         *storeDir,
		workers:          *workers,
		queueCap:         *queueCap,
		retries:          *retries,
		full:             *full,
		noCache:          *noCache,
		computeWorkers:   *computeWorkers,
		datasetCacheMB:   *datasetCacheMB,
		nodeID:           *nodeID,
		peers:            *peers,
		walDir:           *walDir,
		tenantRPS:        *tenantRPS,
		tenantBurst:      *tenantBurst,
		tenantInflight:   *tenantInflight,
		routeOn:          *routeOn,
		profilesPath:     *profilesPath,
		calibrateOnStart: *calibrateOnStart,
		logger:           logger,
		traceCapacity:    *traceCap,
	})
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	defer d.close()
	if d.replayed > 0 {
		logger.Info("wal replay re-submitted accepted work", "jobs_and_turns", d.replayed)
	}
	if d.cluster != nil {
		d.cluster.Start()
		logger.Info("cluster mode",
			"node", d.cluster.Self().ID, "peers", len(d.cluster.Peers()))
	}

	srv := &http.Server{Addr: *addr, Handler: d.server.Handler()}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening",
			"addr", *addr, "job_workers", *workers, "compute_workers", par.Workers(),
			"dataset_cache_mb", *datasetCacheMB, "models", fmt.Sprint(llm.ModelNames()),
			"version", obs.ReadBuildInfo(version).Version)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		logger.Error("http server", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down, draining in-flight jobs", "budget", *drainFor)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	drainErr := d.queue.Shutdown(shutdownCtx)
	if drainErr != nil {
		logger.Warn("queue drain incomplete", "err", drainErr)
	}
	// Close the WAL last: the drain above flushed every terminal
	// transition, so a clean exit replays nothing on the next boot.
	d.close()
	if drainErr != nil {
		os.Exit(1)
	}
	fmt.Println("chatvisd: drained cleanly")
}
