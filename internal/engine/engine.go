// Package engine wires the full Proteus architecture together (Figure 2):
// the catalog of registered datasets and their input plug-ins, the query
// life-cycle (parse → calculus → nested relational algebra → optimize →
// cache-match → compile → run), the Memory and Caching Managers, and the
// statistics store.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/algebra"
	"proteus/internal/cache"
	"proteus/internal/calculus"
	"proteus/internal/cluster"
	"proteus/internal/comp"
	"proteus/internal/exec"
	"proteus/internal/obs"
	"proteus/internal/optimizer"
	"proteus/internal/plugin"
	"proteus/internal/plugin/binpg"
	"proteus/internal/plugin/csvpg"
	"proteus/internal/plugin/jsonpg"
	"proteus/internal/sql"
	"proteus/internal/stats"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// Config tunes an Engine.
type Config struct {
	// CacheEnabled turns adaptive caching on (§6).
	CacheEnabled bool
	// CacheBudget bounds the cache arena in bytes (0 = unlimited).
	CacheBudget int64
	// CacheStrings overrides the default don't-cache-strings policy.
	CacheStrings bool
	// Indexes selects the bitmap-index policy for cached columns:
	// cache.IndexAuto (default) builds indexes on columns that repeated
	// selective predicates mark as hot, cache.IndexOn indexes every
	// predicate-touched cached column immediately, cache.IndexOff disables
	// bitmap indexes (zone maps are always built — they are 21 bytes per
	// 1024 rows).
	Indexes cache.IndexMode
	// SampleEvery is the statistics sampling stride during cold access
	// (default 64; negative disables cold-access statistics gathering).
	SampleEvery int
	// Parallelism is the number of morsel-parallel workers per query
	// (0 = GOMAXPROCS; 1 forces serial execution). Each worker gets its own
	// compiled pipeline clone over one contiguous morsel of the driving
	// scan; plans whose driving plug-in cannot partition fall back to
	// serial automatically.
	Parallelism int
	// Observability turns per-query lifecycle tracing and operator row
	// counting on for every query (see DESIGN.md, Observability). Engine
	// metrics and EXPLAIN ANALYZE work regardless of this flag; it controls
	// only whether ordinary queries record profiles into the ring.
	Observability bool
	// ProfileRingSize bounds how many recent query profiles are retained
	// (default 32; values below 1 retain only the most recent profile).
	ProfileRingSize int
	// OnQueryDone, when set, is invoked synchronously with every finished
	// query's profile — the structured slow-query-log hook. It runs on the
	// query's goroutine; keep it cheap or hand off.
	OnQueryDone func(obs.QueryProfile)
	// SlowQueryThreshold, when positive, records every query whose
	// end-to-end time reaches it into the slow-query log (surfaced at
	// /debug/slow and Engine.SlowQueries). Setting it forces the observed
	// life-cycle even when Observability is off, so slow queries always
	// carry their full profile. 0 disables the log.
	SlowQueryThreshold time.Duration
	// SlowQueryLogSize bounds the retained slow-query records (default 128).
	SlowQueryLogSize int
	// SlowQueryWriter, when set, additionally receives every slow-query
	// record as one JSON line (the production log sink).
	SlowQueryWriter io.Writer
	// TraceMorsels samples per-morsel event spans into observed query
	// profiles for trace export: every Nth observed query records one span
	// per scan-driver invocation (0 = off, the default — EXPLAIN ANALYZE
	// runs always record events).
	TraceMorsels int
	// PlanFeedbackSize bounds the per-plan-fingerprint feedback store in
	// tracked plans (0 = default 256; negative disables the store).
	PlanFeedbackSize int
	// QueryTimeout bounds each query's wall time, covering the whole
	// life-cycle from parse through execute (0 = no timeout). Expired
	// queries return context.DeadlineExceeded.
	QueryTimeout time.Duration
	// QueryMemBudget bounds the bytes a single query may pin in operator
	// state — hash-join build sides, aggregation tables, ORDER BY buffers
	// (0 = unlimited). Exceeding it fails the query with exec.ErrMemBudget;
	// the engine and its caches stay usable.
	QueryMemBudget int64
	// MaxConcurrentQueries gates admission: queries beyond the limit wait
	// until a slot frees or their context is cancelled (0 = unlimited).
	MaxConcurrentQueries int
	// Vectorized selects the execution mode for eligible pipeline segments
	// (scan→filter chains over scalar columns feeding an aggregate):
	// exec.VecAuto (default) applies the compiler's one static rule —
	// vectorize a batch-capable segment over a native batch producer with
	// at least two batches of input, tuple elsewhere — with no runtime
	// feedback; exec.VecOn forces batch kernels wherever eligible,
	// exec.VecOff forces the tuple-at-a-time path everywhere.
	Vectorized exec.VecMode
	// PlanCacheSize bounds the compiled-plan cache in entries (0 = default
	// 64; negative disables plan caching entirely).
	PlanCacheSize int
	// Cluster, when set, makes this engine a scatter/gather coordinator:
	// eligible plans (partitionable driving scan, ≥ 2 worker morsels) are
	// distributed across the coordinator's workers and merged through the
	// same discipline the in-process parallel path uses; ineligible plans
	// and worker plan-fingerprint divergence fall back to local execution
	// transparently.
	Cluster *cluster.Coordinator
}

// Engine is a Proteus instance: a catalog plus the managers every query
// compilation consults.
type Engine struct {
	mu          sync.Mutex
	mem         *storage.Manager
	stats       *stats.Store
	caches      *cache.Manager
	registry    *plugin.Registry
	env         *plugin.Env
	datasets    map[string]*plugin.Dataset
	parallelism int
	vectorize   exec.VecMode
	cluster     *cluster.Coordinator

	// Compiled-plan cache: plainQuery consults it before re-running the
	// life-cycle. planEpoch advances on every catalog mutation (register,
	// drop, plug-in registration) so cached programs compiled against a
	// stale catalog are invalidated; cache-content changes are tracked
	// separately through the cache manager's own epoch.
	plans     *planCache
	planEpoch atomic.Uint64

	// Robustness knobs (see Config).
	timeout   time.Duration
	memBudget int64
	admit     chan struct{} // nil = unlimited concurrency

	// Drain state (see Close): lcMu guards closed and inflight; drained is
	// closed exactly once, when the engine is closed and the last in-flight
	// query has finished.
	lcMu     sync.Mutex
	closed   bool
	inflight int
	drained  chan struct{}

	// Observability state. metrics and profiles are always allocated so
	// Metrics() and the HTTP handler work even when per-query profiling is
	// off; obsEnabled only gates whether ordinary queries trace themselves.
	obsEnabled bool
	metrics    *obs.Metrics
	profiles   *obs.Ring
	onDone     func(obs.QueryProfile)
	queryID    atomic.Int64

	// Observability v2 state. slowlog is nil unless SlowQueryThreshold is
	// set; feedback is nil when PlanFeedbackSize is negative; traceMorsels
	// samples morsel events on every Nth observed query via obsSeq.
	slowlog      *obs.SlowLog
	feedback     *obs.PlanFeedback
	traceMorsels int
	obsSeq       atomic.Int64
}

// New creates an engine with the standard plug-ins registered (CSV, JSON,
// binary).
func New(cfg Config) *Engine {
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 64
	}
	if cfg.SampleEvery < 0 {
		cfg.SampleEvery = 0 // explicit opt-out of cold-access sampling
	}
	mem := storage.NewManager(cfg.CacheBudget)
	st := stats.NewStore()
	cm := cache.NewManager(mem, cfg.CacheEnabled)
	cm.CacheStrings = cfg.CacheStrings
	cm.Indexes = cfg.Indexes
	reg := plugin.NewRegistry()
	reg.Register(csvpg.New())
	reg.Register(jsonpg.New())
	reg.Register(binpg.New())
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	ringSize := cfg.ProfileRingSize
	if ringSize == 0 {
		ringSize = 32
	}
	if ringSize < 0 {
		ringSize = 0
	}
	var slowlog *obs.SlowLog
	if cfg.SlowQueryThreshold > 0 {
		logSize := cfg.SlowQueryLogSize
		if logSize == 0 {
			logSize = 128
		}
		slowlog = obs.NewSlowLog(cfg.SlowQueryThreshold, logSize, cfg.SlowQueryWriter)
	}
	var feedback *obs.PlanFeedback
	if cfg.PlanFeedbackSize >= 0 {
		feedback = obs.NewPlanFeedback(cfg.PlanFeedbackSize)
	}
	var admit chan struct{}
	if cfg.MaxConcurrentQueries > 0 {
		admit = make(chan struct{}, cfg.MaxConcurrentQueries)
	}
	planCap := cfg.PlanCacheSize
	if planCap == 0 {
		planCap = 64
	}
	var plans *planCache
	if planCap > 0 {
		plans = newPlanCache(planCap)
	}
	return &Engine{
		mem:          mem,
		drained:      make(chan struct{}),
		stats:        st,
		caches:       cm,
		registry:     reg,
		env:          &plugin.Env{Mem: mem, Stats: st, SampleEvery: cfg.SampleEvery},
		datasets:     map[string]*plugin.Dataset{},
		parallelism:  par,
		vectorize:    cfg.Vectorized,
		cluster:      cfg.Cluster,
		plans:        plans,
		timeout:      cfg.QueryTimeout,
		memBudget:    cfg.QueryMemBudget,
		admit:        admit,
		obsEnabled:   cfg.Observability,
		metrics:      &obs.Metrics{},
		profiles:     obs.NewRing(ringSize),
		onDone:       cfg.OnQueryDone,
		slowlog:      slowlog,
		feedback:     feedback,
		traceMorsels: cfg.TraceMorsels,
	}
}

// compileProg compiles an optimized plan with the engine's parallelism
// setting; exec falls back to a serial compile when the plan cannot be
// morsel-partitioned.
func (e *Engine) compileProg(plan algebra.Node) (*exec.Program, error) {
	return e.compileProgWith(plan, nil, nil)
}

// compileProgWith compiles like compileProg but additionally requests
// per-operator profiling when spec is non-nil (observed queries and EXPLAIN
// ANALYZE), wiring the engine's cumulative metrics into the run. sortSpec,
// when non-nil, pushes the statement's ORDER BY / LIMIT into compilation so
// an eligible plan can sort columns before boxing rows (Program.Sorted
// reports whether it did).
func (e *Engine) compileProgWith(plan algebra.Node, spec *exec.ProfileSpec, sortSpec *exec.SortSpec) (*exec.Program, error) {
	env := &exec.Env{Catalog: e, Caches: e.caches, Stats: e.stats, MemBudget: e.memBudget, Vectorize: e.vectorize, Sort: sortSpec}
	if spec != nil {
		env.Profile = spec
		env.Metrics = e.metrics
	}
	return exec.CompileParallel(plan, env, e.parallelism)
}

// noteModeDecision records the outcome of one mode decision: into the plan's
// EXPLAIN notes, the decision counters, and the feedback store. A non-auto
// config is final ("config"); under auto the compiler's static rule decides
// per segment ("heuristic"): vectorize a batch-capable segment over a native
// batch producer with at least two batches of input, tuple elsewhere.
func (e *Engine) noteModeDecision(fp string, prog *exec.Program) {
	mode, source := "tuple", "heuristic"
	if prog.Vectorized {
		mode = "vectorized"
	}
	if e.vectorize != exec.VecAuto {
		source = "config"
	}
	prog.Explain = append(prog.Explain, fmt.Sprintf("mode: %s (%s)", mode, source))
	e.metrics.CountModeDecision(mode, source)
	e.feedback.NoteModeDecision(fp, "", mode, source)
}

// Mem exposes the memory manager (data generators write synthetic files
// through it).
func (e *Engine) Mem() *storage.Manager { return e.mem }

// Caches exposes the caching manager (experiments toggle and inspect it).
func (e *Engine) Caches() *cache.Manager { return e.caches }

// Stats exposes the statistics store.
func (e *Engine) Stats() *stats.Store { return e.stats }

// RegisterPlugin adds a custom input plug-in (§5.2 "Adding More Inputs").
func (e *Engine) RegisterPlugin(in plugin.Input) {
	e.registry.Register(in)
	e.planEpoch.Add(1)
}

// Register adds a dataset to the catalog and opens it through its format's
// plug-in (building structural indexes and gathering cold statistics).
func (e *Engine) Register(name, path, format string, schema *types.RecordType, opts plugin.Options) error {
	in, err := e.registry.For(format)
	if err != nil {
		return err
	}
	ds := &plugin.Dataset{Name: name, Path: path, Format: format, Schema: schema, Opts: opts}
	if err := in.Open(e.env, ds); err != nil {
		return fmt.Errorf("engine: opening %s: %w", name, err)
	}
	e.mu.Lock()
	e.datasets[name] = ds
	e.mu.Unlock()
	e.planEpoch.Add(1)
	return nil
}

// Drop removes a dataset and every cache derived from it (the paper's
// answer to updates: drop and rebuild affected auxiliary structures).
func (e *Engine) Drop(name string) {
	e.mu.Lock()
	ds, ok := e.datasets[name]
	delete(e.datasets, name)
	e.mu.Unlock()
	if ok {
		e.caches.Drop(name)
		e.mem.Release(ds.Path)
	}
	e.planEpoch.Add(1)
}

// Dataset implements exec.Catalog.
func (e *Engine) Dataset(name string) (*plugin.Dataset, plugin.Input, error) {
	e.mu.Lock()
	ds, ok := e.datasets[name]
	e.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("engine: unknown dataset %q", name)
	}
	in, err := e.registry.For(ds.Format)
	if err != nil {
		return nil, nil, err
	}
	return ds, in, nil
}

// SchemaOf implements calculus.Catalog.
func (e *Engine) SchemaOf(name string) (*types.RecordType, bool) {
	ds, in, err := e.Dataset(name)
	if err != nil {
		return nil, false
	}
	return in.Schema(ds), true
}

// Rows implements optimizer.CostSource.
func (e *Engine) Rows(name string) int64 {
	ds, in, err := e.Dataset(name)
	if err != nil {
		return 0
	}
	return in.Cardinality(ds)
}

// FieldCost implements optimizer.CostSource.
func (e *Engine) FieldCost(name string) float64 {
	_, in, err := e.Dataset(name)
	if err != nil {
		return 1
	}
	return in.FieldCost()
}

// Prepared is a compiled query: plan + specialized program.
type Prepared struct {
	Plan    algebra.Node
	Program *exec.Program
	// Sort is the statement's ORDER BY / LIMIT (nil when absent). The local
	// Program already applies it (absorbed or wrapped); the cluster path
	// re-applies it over the gathered merge, which is always unsorted.
	Sort *exec.SortSpec
}

// Explain renders the optimized plan and the compilation decisions.
func (p *Prepared) Explain() string {
	out := algebra.Format(p.Plan)
	for _, note := range p.Program.Explain {
		out += "-- " + note + "\n"
	}
	return out
}

// prepareComprehension runs the common tail of the life-cycle.
func (e *Engine) prepareComprehension(c *calculus.Comprehension) (*Prepared, error) {
	return e.prepare(context.Background(), c, nil)
}

// ctxErr reports a done context as its cancellation cause (Canceled,
// DeadlineExceeded, or whatever the caller supplied), nil otherwise.
func ctxErr(ctx context.Context) error {
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}

// prepare runs the life-cycle tail (calculus → optimize → compile), tracing
// each phase into tr when a tracer is supplied. With a tracer, the
// post-optimization plan is also walked to record the optimizer's
// cardinality estimate per node, so EXPLAIN ANALYZE can print estimated vs.
// actual rows side by side. The context is checked between phases so a
// cancelled or timed-out query stops before paying for the next phase.
func (e *Engine) prepare(ctx context.Context, c *calculus.Comprehension, tr *tracer) (*Prepared, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	endCalc := tr.phase(obs.PhaseCalculus)
	if err := calculus.ResolveColumns(c, e); err != nil {
		endCalc()
		return nil, err
	}
	plan, err := calculus.Translate(calculus.Normalize(c), e)
	endCalc()
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	optEnv := &optimizer.Env{Stats: e.stats, Costs: e}
	endOpt := tr.phase(obs.PhaseOptimize)
	plan = optimizer.Optimize(plan, optEnv)
	endOpt()
	var spec *exec.ProfileSpec
	if tr != nil && tr.spec != nil {
		spec = tr.spec
		algebra.Walk(plan, func(n algebra.Node) bool {
			spec.Estimates[n] = optimizer.EstimateCard(n, optEnv)
			return true
		})
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	var sortSpec *exec.SortSpec
	if len(c.OrderBy) > 0 || c.Limit > 0 {
		sortSpec = &exec.SortSpec{
			By:    append([]string(nil), c.OrderBy...),
			Desc:  append([]bool(nil), c.OrderDesc...),
			Limit: c.Limit,
		}
	}
	endCompile := tr.phase(obs.PhaseCompile)
	prog, err := e.compileProgWith(plan, spec, sortSpec)
	endCompile()
	if err != nil {
		return nil, err
	}
	e.noteModeDecision(plan.Fingerprint(), prog)
	if sortSpec != nil && !prog.Sorted {
		orderBy, desc, limit := sortSpec.By, sortSpec.Desc, sortSpec.Limit
		prog.WrapResult(func(res *exec.Result) (*exec.Result, error) {
			// The sort buffer holds every materialized row; charge it
			// against the query's memory budget before sorting.
			if err := prog.ChargeMem(64 * int64(len(res.Rows))); err != nil {
				return nil, err
			}
			return exec.OrderAndLimit(res, orderBy, desc, limit)
		})
	}
	return &Prepared{Plan: plan, Program: prog, Sort: sortSpec}, nil
}

// PrepareSQL compiles a SQL statement without running it.
func (e *Engine) PrepareSQL(query string) (*Prepared, error) {
	c, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return e.prepareComprehension(c)
}

// PrepareComp compiles a comprehension without running it.
func (e *Engine) PrepareComp(query string) (*Prepared, error) {
	c, err := comp.Parse(query)
	if err != nil {
		return nil, err
	}
	return e.prepareComprehension(c)
}

// QuerySQL parses, optimizes, compiles, and runs a SQL statement.
func (e *Engine) QuerySQL(query string) (*exec.Result, error) {
	return e.runQuery(context.Background(), LangSQL, query)
}

// QueryComp parses, optimizes, compiles, and runs a comprehension.
func (e *Engine) QueryComp(query string) (*exec.Result, error) {
	return e.runQuery(context.Background(), LangComp, query)
}

// QuerySQLContext runs a SQL statement under the caller's context: the
// query aborts cooperatively — between pipeline vectors, scan strides, and
// life-cycle phases — when ctx is cancelled or its deadline passes.
func (e *Engine) QuerySQLContext(ctx context.Context, query string) (*exec.Result, error) {
	return e.runQuery(ctx, LangSQL, query)
}

// QueryCompContext is QuerySQLContext for comprehension queries.
func (e *Engine) QueryCompContext(ctx context.Context, query string) (*exec.Result, error) {
	return e.runQuery(ctx, LangComp, query)
}

// runQuery is the single entry point for executing queries: it rejects
// queries on a closed engine, gates admission, applies the configured
// timeout, dispatches to the observed or plain life-cycle, and classifies
// the outcome into the robustness metrics.
func (e *Engine) runQuery(ctx context.Context, lang, query string) (*exec.Result, error) {
	if err := e.beginQuery(); err != nil {
		return nil, err
	}
	defer e.endQuery()
	// Admission precedes the execution timeout on purpose: QueryTimeout
	// bounds execution, not queueing, so a query that spends its life in the
	// admission queue under load must not arrive at the scan already expired.
	// The wait itself stays bounded by the caller's context (and is measured
	// into the admission_wait histogram).
	if e.admit != nil {
		e.metrics.AdmissionQueued.Add(1)
		t0 := time.Now()
		err := e.acquire(ctx)
		e.metrics.AdmissionQueued.Add(-1)
		e.metrics.AdmissionWait.Observe(time.Since(t0))
		if err != nil {
			return nil, e.finishQuery(query, err)
		}
		defer e.release()
	}
	if e.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.timeout)
		defer cancel()
	}
	var (
		res *exec.Result
		err error
	)
	// The slow-query log needs the full profile of every query that might
	// cross its threshold, so a configured log forces the observed path even
	// when Observability is off (profiles still only enter the ring and
	// metrics through flushProfile, as before).
	if e.obsEnabled || e.slowlog != nil {
		res, _, err = e.observedQuery(ctx, lang, query, false)
	} else {
		res, err = e.plainQuery(ctx, lang, query)
	}
	if err != nil {
		return nil, e.finishQuery(query, err)
	}
	return res, nil
}

// plainQuery is the untraced life-cycle: parse → prepare → run, all under
// the caller's context. With plan caching enabled, a repeated statement
// skips straight to its previously compiled program.
func (e *Engine) plainQuery(ctx context.Context, lang, query string) (*exec.Result, error) {
	if e.plans == nil {
		p, err := e.parseAndPrepare(ctx, lang, query)
		if err != nil {
			return nil, err
		}
		return e.runPrepared(ctx, lang, query, p)
	}
	// Both epochs are captured before prepare on purpose: a run that itself
	// registers cache blocks stores its entry stamped with the pre-run cache
	// epoch, so the next identical query misses and recompiles into a
	// cache-aware plan instead of replaying the cold path forever.
	key := planKey(lang, query)
	catalogEpoch := e.planEpoch.Load()
	cacheEpoch := e.caches.Epoch()
	if en := e.plans.lookup(key, catalogEpoch, cacheEpoch); en != nil {
		e.metrics.PlanCacheHits.Add(1)
		res, err := e.runPrepared(ctx, lang, query, en.prepared)
		en.release()
		return res, err
	}
	e.metrics.PlanCacheMisses.Add(1)
	p, err := e.parseAndPrepare(ctx, lang, query)
	if err != nil {
		return nil, err
	}
	en := e.plans.store(key, p, catalogEpoch, cacheEpoch)
	res, err := e.runPrepared(ctx, lang, query, p)
	en.release()
	return res, err
}

// runPlain executes a prepared program on the untraced path, feeding the
// per-plan feedback store with the one measurement this path affords: total
// execute time and result cardinality. A nil store compiles to two clock
// reads and a nil check.
func (e *Engine) runPlain(ctx context.Context, query string, prog *exec.Program) (*exec.Result, error) {
	if e.feedback == nil {
		return prog.RunContext(ctx)
	}
	t0 := time.Now()
	res, err := prog.RunContext(ctx)
	var rows int64
	if res != nil {
		rows = int64(len(res.Rows))
	}
	e.feedback.Observe(prog.Fingerprint, query, time.Since(t0), rows, err != nil)
	return res, err
}

// parseAndPrepare runs the front half of the life-cycle untraced.
func (e *Engine) parseAndPrepare(ctx context.Context, lang, query string) (*Prepared, error) {
	var (
		c   *calculus.Comprehension
		err error
	)
	if lang == LangSQL {
		c, err = sql.Parse(query)
	} else {
		c, err = comp.Parse(query)
	}
	if err != nil {
		return nil, err
	}
	return e.prepare(ctx, c, nil)
}

// ErrClosed is returned for queries submitted after Close: the engine is
// draining (or drained) and admits no new work.
var ErrClosed = errors.New("engine: closed")

// beginQuery registers one in-flight query, refusing when the engine is
// closed. Every runQuery holds a begin/end pair for its whole life-cycle —
// including the admission wait — so Close can drain precisely.
func (e *Engine) beginQuery() error {
	e.lcMu.Lock()
	defer e.lcMu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.inflight++
	return nil
}

// endQuery retires one in-flight query and, when the engine is closed and
// this was the last one, releases Close waiters.
func (e *Engine) endQuery() {
	e.lcMu.Lock()
	e.inflight--
	if e.closed && e.inflight == 0 {
		close(e.drained)
	}
	e.lcMu.Unlock()
}

// Close drains the engine: new queries are rejected with ErrClosed
// immediately, while queries already in flight (including ones queued at
// the admission gate) run to completion. Close returns once the engine is
// idle, or with ctx's cause when the deadline passes first — in-flight
// queries are NOT cancelled on timeout; callers wanting a hard stop should
// run queries under their own cancellable contexts. Close is idempotent:
// later calls just wait for the same drain.
func (e *Engine) Close(ctx context.Context) error {
	e.lcMu.Lock()
	if !e.closed {
		e.closed = true
		if e.inflight == 0 {
			close(e.drained)
		}
	}
	e.lcMu.Unlock()
	select {
	case <-e.drained:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// queryTagKey carries the caller's correlation tag through a query context.
type queryTagKey struct{}

// WithQueryTag attaches a correlation tag (e.g. an HTTP request ID) to the
// context; observed queries copy it into their QueryProfile and from there
// into the slow-query log, correlating service requests with profiles.
func WithQueryTag(ctx context.Context, tag string) context.Context {
	return context.WithValue(ctx, queryTagKey{}, tag)
}

// QueryTag returns the context's correlation tag ("" when absent).
func QueryTag(ctx context.Context) string {
	tag, _ := ctx.Value(queryTagKey{}).(string)
	return tag
}

// acquire takes an admission slot, waiting until one frees or the context
// is cancelled. A nil gate admits everything.
func (e *Engine) acquire(ctx context.Context) error {
	if e.admit == nil {
		return nil
	}
	select {
	case e.admit <- struct{}{}:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// release frees an admission slot.
func (e *Engine) release() {
	if e.admit != nil {
		<-e.admit
	}
}

// finishQuery classifies a failed query into the robustness counters and
// wraps panics with the query text (the fingerprint is already inside the
// PanicError). The engine, caches, and statistics remain usable after every
// outcome — that is the invariant these counters witness.
func (e *Engine) finishQuery(query string, err error) error {
	var pe *exec.PanicError
	switch {
	case errors.As(err, &pe):
		e.metrics.QueriesPanicked.Add(1)
		return fmt.Errorf("query %q: %w", query, err)
	case errors.Is(err, exec.ErrMemBudget):
		e.metrics.QueriesMemRejected.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		e.metrics.QueriesTimedOut.Add(1)
	case errors.Is(err, context.Canceled):
		e.metrics.QueriesCancelled.Add(1)
	}
	return err
}

// QueryPlan compiles and runs an already-built algebra plan (used by tests
// and the baseline comparison harness).
func (e *Engine) QueryPlan(plan algebra.Node) (*exec.Result, error) {
	plan = optimizer.Optimize(plan, &optimizer.Env{Stats: e.stats, Costs: e})
	prog, err := e.compileProg(plan)
	if err != nil {
		return nil, err
	}
	return prog.Run()
}
