// Package server exposes the simulation pipeline as an HTTP/JSON
// service: clients submit CE-overhead questions (one scenario or a
// whole figure sweep), the server queues them on internal/jobs, reuses
// noise-free baselines through a core.ExperimentCache, and serves results
// and operational metrics. cmd/cesimd is the binary wrapper.
//
// Endpoints:
//
//	POST /v1/simulate          submit one (workload, scale, CE scenario) job
//	POST /v1/sweep             submit a figure regeneration job ("3".."9")
//	GET  /v1/jobs/{id}         poll a job; DELETE cancels it
//	GET  /v1/systems           Table II catalog and logging modes
//	GET  /v1/workloads         workload skeletons
//	POST /v1/advise/ingest     stream per-node CE events (NDJSON batches)
//	GET  /v1/advise/recommend  mitigation advice for a tracked node
//	GET  /metrics              counters, histograms, queue/cache/advisor gauges
//	GET  /healthz              liveness
package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/advise"
	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/noise"
	"repro/internal/simcache"
	"repro/internal/systems"
	"repro/internal/tenant"
	"repro/internal/tracegen"
)

// Config wires the server's dependencies and limits.
type Config struct {
	// Queue executes jobs; required.
	Queue *jobs.Queue
	// Cache memoizes baselines; required.
	Cache *core.ExperimentCache
	// MaxNodes bounds requested node counts (default 16384, the
	// paper's largest simulated system).
	MaxNodes int
	// MaxReps bounds requested repetitions (default 64).
	MaxReps int
	// ShedWatermark sheds new submissions with 503 + Retry-After once
	// the queue depth reaches it. <= 0 disables admission control (the
	// queue's own capacity bound still applies, answered with 429).
	ShedWatermark int
	// JobRetries is the per-job retry budget for retryable failures
	// (recovered panics, injected faults). <= 0 selects the default (2).
	JobRetries int
	// Advisor mounts the online mitigation advisor (docs/ADVISOR.md):
	// POST /v1/advise/ingest and GET /v1/advise/recommend, served
	// through the standard middleware. Ingest batches pass the same
	// shed watermark as job submissions — one overload signal governs
	// the whole daemon. Required.
	Advisor *advise.Service
	// Routes adds extra endpoints — the cluster coordinator's
	// register/lease/report API — registered through the same
	// middleware as the built-in ones: request accounting, panic
	// recovery, request-id stamping and the server.handler fault site.
	// Keys are Go 1.22 ServeMux patterns ("POST /cluster/lease").
	Routes map[string]http.HandlerFunc
	// ResultStore, when non-nil, persists sweep results durably
	// (content-addressed by request payload; see docs/DURABILITY.md).
	// Sweep jobs consult it before computing and re-serve stored bytes
	// verbatim, so restarts answer repeated requests bit-identically
	// without recomputation. Simulate results carry wall-clock timing
	// fields and are never persisted.
	ResultStore *simcache.Store
	// Tenants, when non-nil, applies per-tenant admission (token-bucket
	// rate + in-flight job cap, answered with 429 and Retry-After) and
	// the result-store disk quota. Tenants are named by the X-Tenant
	// header; the empty name is the shared default tenant.
	Tenants *tenant.Registry
	// Journal, when non-nil, is the queue's WAL writer, exposed here
	// only so /metrics can report its stats; the queue itself holds the
	// append hook (jobs.Config.Journal).
	Journal *journal.Writer
	// Log receives operational lines (failed requests with their
	// request ids); nil discards them.
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	def := core.DefaultLimits()
	if c.MaxNodes <= 0 {
		c.MaxNodes = def.MaxNodes
	}
	if c.MaxReps <= 0 {
		c.MaxReps = def.MaxReps
	}
	if c.JobRetries <= 0 {
		c.JobRetries = 2
	}
	if c.Log == nil {
		c.Log = log.New(io.Discard, "", 0)
	}
	return c
}

// limits is what every run and sweep spec is admitted against: the
// configured node and repetition bounds, and the default iteration
// bound.
func (c Config) limits() core.Limits {
	return core.Limits{MaxNodes: c.MaxNodes, MaxIters: core.DefaultLimits().MaxIters, MaxReps: c.MaxReps}
}

// ErrShed reports a submission rejected by admission control because
// the job queue is above the shed watermark.
var ErrShed = errors.New("server: overloaded, submission shed")

// Server is the HTTP handler. Construct with New.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	mu     sync.Mutex
	st     Snapshot // the request and status counts and the counters; snapshot adds the rest
	stages map[string]*hist
}

// New builds the handler around a queue, a baseline cache and an advisor.
func New(cfg Config) (*Server, error) {
	if cfg.Queue == nil || cfg.Cache == nil || cfg.Advisor == nil {
		return nil, fmt.Errorf("server: queue, cache and advisor are required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg, mux: http.NewServeMux(), start: time.Now(),
		st:     Snapshot{Requests: map[string]uint64{}, Statuses: map[string]uint64{}},
		stages: map[string]*hist{},
	}
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("GET /v1/systems", s.handleSystems)
	s.handle("GET /v1/workloads", s.handleWorkloads)
	s.handle("POST /v1/simulate", s.handleSimulate)
	s.handle("POST /v1/sweep", s.handleSweep)
	s.handle("GET /v1/jobs/{id}", s.handleJobGet)
	s.handle("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.handle("POST /v1/advise/ingest", s.handleAdviseIngest)
	s.handle("GET /v1/advise/recommend", cfg.Advisor.HandleRecommend)
	patterns := make([]string, 0, len(cfg.Routes))
	for p := range cfg.Routes {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns) // deterministic registration (and conflict) order
	for _, p := range patterns {
		s.handle(p, cfg.Routes[p])
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// statusRecorder captures the response code for metrics and whether
// anything was written (a recovered panic can only send a clean 500 if
// the handler had not started the response).
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// maxRequestIDLen bounds inbound request ids so a hostile header cannot
// bloat logs or job records.
const maxRequestIDLen = 64

// NewRequestID mints a fresh request id (12 hex chars of entropy).
func NewRequestID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Unreachable in practice; a constant id keeps requests served.
		return "r-norand"
	}
	return "r-" + hex.EncodeToString(b[:])
}

// handle registers a route with request accounting, request-id
// stamping, panic recovery and the server.handler fault site. pattern
// must be "METHOD /path" (Go 1.22 ServeMux syntax). A panicking handler
// is converted into a 500 instead of killing the connection (and, with
// http.Server, being rethrown by the net/http panic handler).
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(envelope.RequestIDHeader)
		if rid == "" || len(rid) > maxRequestIDLen {
			rid = NewRequestID()
		}
		w.Header().Set(envelope.RequestIDHeader, rid)
		r = r.WithContext(envelope.WithRequestID(r.Context(), rid))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		func() {
			defer func() {
				if v := recover(); v != nil {
					s.count(&s.st.HandlerPanics)
					rec.status = http.StatusInternalServerError
					if !rec.wrote {
						envelope.Error(rec, http.StatusInternalServerError, "", fmt.Errorf("internal error: %v", v))
					}
				}
			}()
			if err := faultinject.Fire(r.Context(), faultinject.SiteHandler); err != nil {
				envelope.Error(rec, http.StatusInternalServerError, "", err)
				return
			}
			h(rec, r)
		}()
		if rec.status >= 400 {
			s.cfg.Log.Printf("%s -> %d rid=%s", pattern, rec.status, rid)
		}
		s.request(pattern, rec.status, time.Since(start))
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	envelope.Write(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	envelope.Write(w, http.StatusOK, s.snapshot())
}

// shed answers 503 with Retry-After, and reports true, once the queue
// depth has reached the shed watermark.
func (s *Server) shed(w http.ResponseWriter) bool {
	if wm := s.cfg.ShedWatermark; wm <= 0 || s.cfg.Queue.Depth() < wm {
		return false
	}
	s.count(&s.st.ShedRequests)
	w.Header().Set("Retry-After", "1")
	envelope.Error(w, http.StatusServiceUnavailable, "", ErrShed)
	return true
}

// handleAdviseIngest admits an advisor batch through the same shed
// watermark as job submissions: when the simulation queue is saturated
// the daemon is overloaded, and ingest is the first load to drop
// because clients buffer NDJSON and retry losslessly (batches apply
// atomically, so a retry cannot double-count).
func (s *Server) handleAdviseIngest(w http.ResponseWriter, r *http.Request) {
	if !s.shed(w) {
		s.cfg.Advisor.HandleIngest(w, r)
	}
}

// systemJSON is one Table II row on the wire.
type systemJSON struct {
	Name          string  `json:"name"`
	Class         string  `json:"class"`
	CEPerNodeYear float64 `json:"ce_per_node_year"`
	GiBPerNode    float64 `json:"gib_per_node"`
	CEPerGiBYear  float64 `json:"ce_per_gib_year"`
	MTBCESeconds  float64 `json:"mtbce_s"`
	MTBCENanos    int64   `json:"mtbce_ns"`
	Nodes         int     `json:"nodes,omitempty"`
	SimNodes      int     `json:"sim_nodes,omitempty"`
}

// modeJSON is one logging scenario on the wire.
type modeJSON struct {
	Name          string `json:"name"`
	PerEventNanos int64  `json:"per_event_ns"`
}

func className(c systems.Class) string {
	switch c {
	case systems.DataCenter:
		return "datacenter"
	case systems.HPC:
		return "hpc"
	case systems.Exascale:
		return "exascale"
	}
	return "unknown"
}

func (s *Server) handleSystems(w http.ResponseWriter, r *http.Request) {
	var sys []systemJSON
	for _, row := range systems.Catalog() {
		sys = append(sys, systemJSON{
			Name: row.Name, Class: className(row.Class),
			CEPerNodeYear: row.CEPerNodeYear, GiBPerNode: row.GiBPerNode,
			CEPerGiBYear: row.CEPerGiBYear, MTBCESeconds: row.MTBCESeconds,
			MTBCENanos: row.MTBCENanos(), Nodes: row.Nodes, SimNodes: row.SimNodes,
		})
	}
	var modes []modeJSON
	for _, m := range systems.LoggingModes() {
		modes = append(modes, modeJSON{Name: m.Name, PerEventNanos: m.PerEventNanos})
	}
	envelope.Write(w, http.StatusOK, map[string]any{"systems": sys, "logging_modes": modes})
}

// workloadJSON is one skeleton spec on the wire.
type workloadJSON struct {
	Name           string  `json:"name"`
	Dims           int     `json:"dims"`
	HaloBytes      int64   `json:"halo_bytes"`
	ComputeNanos   int64   `json:"compute_ns"`
	ComputeJitter  float64 `json:"compute_jitter"`
	AllreduceEvery int     `json:"allreduce_every"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	var out []workloadJSON
	for _, name := range tracegen.Names() {
		spec, err := tracegen.Lookup(name)
		if err != nil {
			envelope.Error(w, http.StatusInternalServerError, "", fmt.Errorf("workload catalog: %v", err))
			return
		}
		out = append(out, workloadJSON{
			Name: spec.Name, Dims: spec.Dims, HaloBytes: spec.HaloBytes,
			ComputeNanos: spec.ComputeNs, ComputeJitter: spec.ComputeJitter,
			AllreduceEvery: spec.AllreduceEvery,
		})
	}
	envelope.Write(w, http.StatusOK, map[string]any{"workloads": out})
}

// SimulateRequest is the POST /v1/simulate body: the run spec itself,
// so a body, a journaled payload and cmd/cesim's flags resolve through
// one function (core.RunSpec.Resolve; field table in docs/SERVICE.md).
type SimulateRequest = core.RunSpec

// SlowdownJSON summarizes the slowdown sample of a simulate job. It is
// present only when at least one repetition produced a usable slowdown
// (saturated repetitions are excluded from the sample).
type SlowdownJSON struct {
	MeanPct float64 `json:"mean_pct"`
	CI95Pct float64 `json:"ci95_pct"`
	MinPct  float64 `json:"min_pct"`
	MaxPct  float64 `json:"max_pct"`
	P50Pct  float64 `json:"p50_pct"`
	P95Pct  float64 `json:"p95_pct"`
	N       int     `json:"n"`
}

// SimulateResult is a simulate job's stored result.
type SimulateResult struct {
	Workload      string `json:"workload"`
	Nodes         int    `json:"nodes"`
	Ranks         int    `json:"ranks"`
	Iters         int    `json:"iters"`
	MTBCENanos    int64  `json:"mtbce_ns"`
	PerEventNanos int64  `json:"per_event_ns"`
	// FaultMix echoes the resolved mixture composition (the canonical
	// faultmodel label) when the scenario replaced the Poisson process.
	FaultMix              string        `json:"fault_mix,omitempty"`
	Target                int32         `json:"target"`
	Reps                  int           `json:"reps"`
	BaselineMakespanNanos int64         `json:"baseline_makespan_ns"`
	Saturated             bool          `json:"saturated"`
	SaturatedReps         int           `json:"saturated_reps,omitempty"`
	Slowdown              *SlowdownJSON `json:"slowdown,omitempty"`
	// CacheHit reports whether the baseline was resident (or already
	// being built) when the job ran.
	CacheHit bool `json:"cache_hit"`
	// CacheBypassed reports the baseline was built directly because the
	// cache failed. The result is still bit-identical: baseline
	// construction is deterministic.
	CacheBypassed bool `json:"cache_bypassed,omitempty"`
	// BaselineNanos and ScenariosNanos decompose the job's wall time.
	BaselineNanos  int64 `json:"baseline_wall_ns"`
	ScenariosNanos int64 `json:"scenarios_wall_ns"`
}

// submitted is the 202 response to a job submission.
type submitted struct {
	ID    string     `json:"id"`
	State jobs.State `json:"state"`
	Poll  string     `json:"poll"`
}

// TenantHeader names the tenant a submission is accounted to. Absent
// (or empty) selects the shared default tenant.
const TenantHeader = "X-Tenant"

// maxTenantNameLen bounds tenant names so a hostile header cannot
// bloat quota state, journal records or store entries.
const maxTenantNameLen = 64

// admitTenant applies per-tenant admission to one submission. On
// success the returned release must be called when the job leaves
// flight. On rejection the 429 (with Retry-After when waiting helps)
// has been written and ok is false.
func (s *Server) admitTenant(w http.ResponseWriter, name string) (release func(), ok bool) {
	if len(name) > maxTenantNameLen {
		envelope.Error(w, http.StatusBadRequest, "", fmt.Errorf("tenant name exceeds %d bytes", maxTenantNameLen))
		return nil, false
	}
	if s.cfg.Tenants == nil {
		return func() {}, true
	}
	release, err := s.cfg.Tenants.Admit(name)
	if err != nil {
		s.count(&s.st.TenantRejections)
		// Retry-After mirrors the shed 503 and queue-full 429: always
		// present on a 429 so clients back off uniformly. The token
		// bucket computes a real horizon; the job cap cannot (the
		// client must finish work, not wait), so it advises 1s.
		after := "1"
		var le *tenant.LimitError
		if errors.As(err, &le) && le.RetryAfter > 0 {
			after = fmt.Sprintf("%d", int((le.RetryAfter+time.Second-1)/time.Second))
		}
		w.Header().Set("Retry-After", after)
		envelope.Error(w, http.StatusTooManyRequests, "", err)
		return nil, false
	}
	return release, true
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind string, payload json.RawMessage, fn jobs.Func) {
	if s.shed(w) {
		return
	}
	tenantName := r.Header.Get(TenantHeader)
	release, ok := s.admitTenant(w, tenantName)
	if !ok {
		return
	}
	spec := jobs.Spec{
		Kind:      kind,
		RequestID: envelope.RequestIDFrom(r.Context()),
		Tenant:    tenantName,
		Retries:   s.cfg.JobRetries,
		Payload:   payload,
	}
	id, err := s.cfg.Queue.SubmitSpec(spec, fn)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		release()
		w.Header().Set("Retry-After", "1")
		envelope.Error(w, http.StatusTooManyRequests, "", errors.New("queue full, retry later"))
		return
	case errors.Is(err, jobs.ErrDraining):
		release()
		envelope.Error(w, http.StatusServiceUnavailable, "", errors.New("server shutting down"))
		return
	case err != nil:
		release()
		envelope.Error(w, http.StatusInternalServerError, "", fmt.Errorf("submit: %v", err))
		return
	}
	s.releaseOnExit(id, release)
	envelope.Write(w, http.StatusAccepted, submitted{ID: id, State: jobs.Queued, Poll: "/v1/jobs/" + id})
}

// releaseOnExit returns the tenant's in-flight slot when the job
// reaches a terminal state (including cancellation while queued).
func (s *Server) releaseOnExit(id string, release func()) {
	go func() {
		_, _, _ = s.cfg.Queue.Wait(context.Background(), id)
		release()
	}()
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := decodeBody(r, &req); err != nil {
		envelope.Error(w, http.StatusBadRequest, "", err)
		return
	}
	cfg, sc, err := req.Resolve(s.cfg.limits())
	if err != nil {
		envelope.Error(w, http.StatusBadRequest, "", err)
		return
	}
	// Marshal after resolve so the journaled payload carries the
	// defaulted fields: recovery re-resolves to the identical job.
	payload, err := json.Marshal(req)
	if err != nil {
		envelope.Error(w, http.StatusInternalServerError, "", err)
		return
	}
	s.submit(w, r, "simulate", payload, s.simulateFunc(cfg, sc, req))
}

// simulateFunc builds the job body for one resolved simulate request;
// shared by the HTTP handler and journal recovery.
func (s *Server) simulateFunc(cfg core.ExperimentConfig, sc core.Scenario, req SimulateRequest) jobs.Func {
	return func(ctx context.Context) (any, error) {
		jobStart := time.Now()
		exp, hit, bypassed, err := s.baseline(ctx, cfg)
		if err != nil {
			return nil, err
		}
		baselineWall := time.Since(jobStart)
		s.observe(StageBaseline, baselineWall)

		scStart := time.Now()
		rep, err := exp.RunRepeatedParallelContext(ctx, sc, req.Reps, 0) // GOMAXPROCS wide, as a sweep job
		if err != nil {
			return nil, err
		}
		scenariosWall := time.Since(scStart)
		s.observe(StageScenarios, scenariosWall)
		s.observe(StageJob, time.Since(jobStart))

		mixLabel := ""
		if sc.Arrivals != nil {
			mixLabel = sc.Arrivals.String()
		}
		res := &SimulateResult{
			Workload: cfg.Workload, Nodes: cfg.Nodes, Ranks: exp.Ranks(), Iters: cfg.Iterations,
			MTBCENanos: sc.MTBCE, PerEventNanos: int64(sc.PerEvent.(noise.Fixed)),
			FaultMix: mixLabel,
			Target:   sc.Target, Reps: req.Reps,
			BaselineMakespanNanos: exp.Baseline().Makespan,
			Saturated:             rep.Saturated,
			SaturatedReps:         rep.SaturatedReps,
			CacheHit:              hit,
			CacheBypassed:         bypassed,
			BaselineNanos:         int64(baselineWall),
			ScenariosNanos:        int64(scenariosWall),
		}
		// A fully saturated scenario legitimately has an empty sample;
		// Quantile (unlike Percentile) cannot panic the job on it, so
		// an all-saturated result serializes cleanly with Slowdown
		// omitted instead of failing the request.
		if rep.Sample.N() > 0 {
			sum := rep.Sample.Summarize()
			p50, err := rep.Sample.Quantile(50)
			if err != nil {
				return nil, err
			}
			p95, err := rep.Sample.Quantile(95)
			if err != nil {
				return nil, err
			}
			res.Slowdown = &SlowdownJSON{
				MeanPct: sum.Mean, CI95Pct: sum.CI95,
				MinPct: sum.Min, MaxPct: sum.Max,
				P50Pct: p50, P95Pct: p95, N: sum.N,
			}
		}
		return res, nil
	}
}

// SweepRequest is the POST /v1/sweep body: the sweep spec with Figure
// naming the one figure ("3".."9") the job regenerates. The job runs
// the figure driver under the request as it stands.
type SweepRequest = core.Options

// admitSweep is the admission check of a sweep request; shared by the
// HTTP handler and journal recovery.
func (s *Server) admitSweep(req *SweepRequest) error {
	if err := req.Validate(s.cfg.limits()); err != nil {
		return err
	}
	if req.Figure == "" {
		return fmt.Errorf("figure is required (3..9)")
	}
	return nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(r, &req); err != nil {
		envelope.Error(w, http.StatusBadRequest, "", err)
		return
	}
	if err := s.admitSweep(&req); err != nil {
		envelope.Error(w, http.StatusBadRequest, "", err)
		return
	}
	payload, err := json.Marshal(req)
	if err != nil {
		envelope.Error(w, http.StatusInternalServerError, "", err)
		return
	}
	s.submit(w, r, "sweep", payload, s.sweepFunc(req, r.Header.Get(TenantHeader), payload))
}

// sweepFunc builds the job body for one admitted sweep request.
// Figure generation is deterministic, so the result is persisted in
// the content-addressed store (when configured) keyed by the request
// payload: a repeated or recovered request re-serves the stored bytes
// verbatim instead of recomputing. The job's context reaches every
// repetition of the figure, and baselines resolve as a simulate job's
// do (the daemon's cache, then a direct build): the job passes its own
// Options.Experiments, so core's process-wide ExperimentCache is never
// filled by the daemon and /metrics accounts for every baseline.
func (s *Server) sweepFunc(req SweepRequest, tenantName string, payload []byte) jobs.Func {
	return func(ctx context.Context) (any, error) {
		var key string
		if s.cfg.ResultStore != nil {
			key = simcache.ResultKey("sweep", payload)
			if b, ok := s.cfg.ResultStore.Get(key); ok {
				return json.RawMessage(b), nil
			}
		}
		start := time.Now()
		opts := req
		opts.Experiments = func(cfg core.ExperimentConfig) (*core.Experiment, error) {
			exp, _, _, err := s.baseline(ctx, cfg)
			return exp, err
		}
		f, err := core.RunFigure(ctx, opts.Figure, opts)
		if err != nil {
			return nil, err
		}
		s.observe(StageJob, time.Since(start))
		var buf bytes.Buffer
		if err := f.WriteJSON(&buf); err != nil {
			return nil, err
		}
		s.persistResult(ctx, tenantName, key, buf.Bytes())
		return json.RawMessage(buf.Bytes()), nil
	}
}

// persistResult stores a sweep result durably, honoring the tenant's
// disk quota: overage (or a store fault) skips persistence and is
// counted — durability degrades, the job still succeeds.
func (s *Server) persistResult(ctx context.Context, tenantName, key string, b []byte) {
	if s.cfg.ResultStore == nil || key == "" {
		return
	}
	if s.cfg.Tenants != nil &&
		!s.cfg.Tenants.DiskAllowed(tenantName, s.cfg.ResultStore.TenantBytes(tenantName), int64(len(b))) {
		s.cfg.Log.Printf("store: disk quota exceeded for tenant %q, result not persisted", tenantName)
		return
	}
	if err := s.cfg.ResultStore.Put(ctx, tenantName, key, b); err != nil {
		s.cfg.Log.Printf("store: persist %s failed: %v", key, err)
	}
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.cfg.Queue.Get(r.PathValue("id"))
	if !ok {
		envelope.Error(w, http.StatusNotFound, "", fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	envelope.Write(w, http.StatusOK, snap)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.cfg.Queue.Cancel(id) {
		envelope.Write(w, http.StatusOK, map[string]any{"id": id, "canceled": true})
		return
	}
	if snap, ok := s.cfg.Queue.Get(id); ok {
		envelope.Error(w, http.StatusConflict, "", fmt.Errorf("job %s already %s", id, snap.State))
		return
	}
	envelope.Error(w, http.StatusNotFound, "", fmt.Errorf("unknown job %q", id))
}

// baseline resolves the experiment for cfg, preferring the shared
// cache. A cache failure degrades this job to a direct build, counted
// in cache_bypasses; both paths construct the identical experiment —
// baseline building is deterministic — so degradation never changes
// results, only cost. Cancellation is passed through untouched: it is
// the caller stopping, not the cache failing.
func (s *Server) baseline(ctx context.Context, cfg core.ExperimentConfig) (exp *core.Experiment, hit, bypassed bool, err error) {
	exp, hit, err = s.cfg.Cache.GetOrBuild(ctx, cfg)
	if err == nil || ctx.Err() != nil {
		return exp, hit, false, err
	}
	s.count(&s.st.CacheBypasses)
	exp, err = core.NewExperiment(cfg)
	return exp, false, true, err
}

// Resubmit re-enqueues jobs already recovered from a WAL (jobs.Recover)
// under their original ids and returns how many were accepted — clients
// polling a pre-crash job id find their job again, and seeds ride along
// in the journaled payload so re-runs are bit-identical. A job whose
// payload no longer validates (version skew across a deploy) is
// re-enqueued too, with a body that fails with the reason, never
// retried: its failure is journaled, so the restart can compact, and a
// client polling the id learns why. The daemon calls this as the
// re-journal step of journal.Restart, once the queue exists over the
// new writer, so the acceptances re-journal into the new segments.
func (s *Server) Resubmit(pending []jobs.PendingJob) int {
	n := 0
	for _, p := range pending {
		fn, err := s.rebuildFunc(p)
		if err != nil {
			s.cfg.Log.Printf("recover: job %s (kind=%s) cannot be rebuilt, failing it: %v", p.ID, p.Spec.Kind, err)
			// %v: whatever the cause's chain says, this is not retryable.
			failure := fmt.Errorf("recover: job cannot be rebuilt: %v", err)
			fn = func(context.Context) (any, error) { return nil, failure }
		}
		if _, err := s.cfg.Queue.SubmitRecovered(p, fn); err != nil {
			s.cfg.Log.Printf("recover: re-enqueue %s: %v", p.ID, err)
			continue
		}
		n++
	}
	return n
}

// rebuildFunc reconstructs a job body from its journaled kind and
// payload. Funcs are closures and cannot be persisted; this is their
// inverse, resolving the payload exactly as the original handler did.
func (s *Server) rebuildFunc(p jobs.PendingJob) (jobs.Func, error) {
	switch p.Spec.Kind {
	case "simulate":
		var req SimulateRequest
		if err := json.Unmarshal(p.Spec.Payload, &req); err != nil {
			return nil, err
		}
		cfg, sc, err := req.Resolve(s.cfg.limits())
		if err != nil {
			return nil, err
		}
		return s.simulateFunc(cfg, sc, req), nil
	case "sweep":
		var req SweepRequest
		if err := json.Unmarshal(p.Spec.Payload, &req); err != nil {
			return nil, err
		}
		if err := s.admitSweep(&req); err != nil {
			return nil, err
		}
		return s.sweepFunc(req, p.Spec.Tenant, p.Spec.Payload), nil
	default:
		return nil, fmt.Errorf("no recovery for job kind %q", p.Spec.Kind)
	}
}

// maxBodyBytes bounds request bodies; simulation requests are tiny.
const maxBodyBytes = 1 << 20

// decodeBody parses a JSON request body with envelope.Decode, firing
// the server.decode fault site first.
func decodeBody(r *http.Request, v any) error {
	if err := faultinject.Fire(r.Context(), faultinject.SiteDecode); err != nil {
		return fmt.Errorf("bad request body: %v", err)
	}
	if err := envelope.Decode(http.MaxBytesReader(nil, r.Body, maxBodyBytes), v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}
