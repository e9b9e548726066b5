// Package proteus is a query engine for heterogeneous data, reproducing
// "Fast Queries Over Heterogeneous Data Through Engine Customization"
// (Karpathiotakis, Alagiannis, Ailamaki — VLDB 2016).
//
// Proteus queries CSV, JSON, and relational binary files in place — no
// loading step — through a single interface (SQL for flat data, monoid
// comprehensions for nested data), and specializes its entire execution
// path to each query at compile time. Input plug-ins build per-format
// structural indexes on first access; adaptive caches materialize hot raw
// fields into binary columns as a side-effect of execution.
//
// Quickstart:
//
//	db := proteus.Open(proteus.Config{CacheEnabled: true})
//	if err := db.RegisterCSV("people", "people.csv", nil); err != nil { ... }
//	if err := db.RegisterJSON("events", "events.json"); err != nil { ... }
//	res, err := db.Query(`SELECT COUNT(*) FROM people p
//	                      JOIN events e ON p.id = e.pid WHERE e.score < 0.5`)
//	for _, row := range res.Rows { fmt.Println(row) }
//
// Comprehension syntax unlocks nested data (Example 3.1 of the paper):
//
//	res, err := db.QueryComprehension(`
//	    for { s <- Sailor, c <- s.children, c.age > 18 }
//	    yield bag (s.id, c.name)`)
package proteus

import (
	"context"
	"io"
	"net/http"
	"strings"
	"time"

	"proteus/internal/cache"
	"proteus/internal/cluster"
	"proteus/internal/engine"
	"proteus/internal/exec"
	"proteus/internal/obs"
	"proteus/internal/plugin"
	"proteus/internal/types"
)

// Config tunes a DB instance.
type Config struct {
	// CacheEnabled turns on adaptive caching: queries over verbose formats
	// (CSV, JSON) materialize the fields they convert into binary cache
	// columns, and later queries read those instead of the raw files.
	CacheEnabled bool
	// CacheBudget caps cache memory in bytes (0 = unlimited). Eviction is
	// LRU biased toward keeping data from costlier formats (JSON ≻ CSV).
	CacheBudget int64
	// CacheStrings opts in to caching string fields (off by default: the
	// paper's policy avoids polluting caches with verbose strings).
	CacheStrings bool
	// Indexes selects the bitmap-index policy for cached columns.
	// IndexesAuto (the default) builds a bitmap index on a cached column once
	// repeated selective predicates mark it hot; IndexesOn indexes every
	// predicate-touched cached column immediately; IndexesOff disables
	// bitmap indexes. Zone maps are always built — they cost 21 bytes per
	// 1024 rows. Results are identical in every mode.
	Indexes IndexMode
	// SampleEvery sets the statistics sampling stride during cold dataset
	// access (default 64).
	SampleEvery int
	// Parallelism sets the number of morsel-parallel workers per query
	// (0 = GOMAXPROCS; 1 forces serial execution). Queries whose driving
	// scan can be partitioned run one compiled pipeline clone per worker
	// and merge thread-local partials at the pipeline breaker.
	Parallelism int
	// Observability records a QueryProfile (phase spans + per-operator row
	// counts) for every query, retained in a bounded ring. Metrics() and
	// ExplainAnalyze work without it; the flag only controls always-on
	// per-query tracing. Overhead is a few percent (counters are updated
	// per batch/morsel, never per tuple; see DESIGN.md, Observability).
	Observability bool
	// ProfileRingSize bounds the retained recent-query profiles (default 32).
	ProfileRingSize int
	// OnQueryDone, when set, receives every finished query's profile
	// synchronously — the programmable per-query hook:
	//
	//	cfg.OnQueryDone = func(q proteus.QueryProfile) {
	//	    if q.Total > 100*time.Millisecond { log.Printf("slow: %s", q.Query) }
	//	}
	//
	// For the built-in structured slow-query log, see SlowQueryThreshold.
	OnQueryDone func(QueryProfile)
	// SlowQueryThreshold, when positive, records every query whose
	// end-to-end time reaches it into the structured slow-query log
	// (db.SlowQueries(), /debug/slow): query text, plan fingerprint,
	// per-phase breakdown, worst cardinality misestimate, per-query cache
	// and index attribution, and the memory high-water mark. Setting it
	// forces full profiling per query even when Observability is off.
	SlowQueryThreshold time.Duration
	// SlowQueryLogSize bounds the retained slow-query records (default 128).
	SlowQueryLogSize int
	// SlowQueryWriter, when set, additionally receives every slow-query
	// record as one JSON line (point it at a log file).
	SlowQueryWriter io.Writer
	// TraceMorsels samples per-morsel event spans into observed query
	// profiles for Chrome trace export (/debug/trace, db.TraceJSON): every
	// Nth observed query records one span per scan-driver invocation
	// (0 = off, the default; EXPLAIN ANALYZE runs always record them).
	TraceMorsels int
	// PlanFeedbackSize bounds the per-plan-fingerprint runtime feedback
	// store (db.PlanFeedback(), /debug/plans) in tracked plans (0 = default
	// 256; negative disables the store).
	PlanFeedbackSize int
	// QueryTimeout bounds each query's wall time across the whole life-cycle
	// (0 = no timeout). Expired queries fail with context.DeadlineExceeded.
	QueryTimeout time.Duration
	// QueryMemBudget caps the bytes one query may pin in operator state —
	// hash-join build sides, aggregation tables, ORDER BY buffers (0 =
	// unlimited). Exceeding it fails that query gracefully; the DB, its
	// caches, and other queries are unaffected.
	QueryMemBudget int64
	// MaxConcurrentQueries gates admission: queries beyond the limit wait
	// for a slot or for their context to be cancelled (0 = unlimited).
	MaxConcurrentQueries int
	// Vectorized selects the execution mode for eligible pipeline segments
	// (scan→filter chains over scalar columns feeding aggregates or
	// projections). VectorizedAuto (the default) applies one static rule per
	// segment at compile time: batch kernels over a native batch producer
	// (CSV, binary, cache) with at least two batches of input, tuple-at-a-
	// time elsewhere. VectorizedOn and VectorizedOff force one mode
	// everywhere. Results are identical in every mode — this knob trades
	// compilation simplicity for throughput.
	Vectorized VecMode
	// PlanCacheSize bounds the compiled-plan cache in entries (0 = default
	// 64; negative disables plan caching). Repeated query texts skip the
	// parse→optimize→compile tail; entries are invalidated automatically
	// when the catalog or the adaptive cache contents change.
	PlanCacheSize int
	// ClusterWorkers, when non-empty, makes this instance a scatter/gather
	// coordinator over the listed worker base URLs ("http://host:port",
	// each a proteusd serving the same datasets): eligible queries are
	// partitioned into per-worker morsel ranges, executed remotely as
	// scan→filter→partial-aggregate fragments, and merged locally with the
	// same discipline in-process parallelism uses — results are identical
	// to single-node execution. Ineligible plans fall back to local
	// execution transparently.
	ClusterWorkers []string
	// ClusterFragmentTimeout bounds each remote fragment attempt
	// (0 = 30s default).
	ClusterFragmentTimeout time.Duration
	// ClusterHedgeAfter, when positive, launches a fragment's one retry
	// speculatively on the next worker once the primary has run this long;
	// the first complete response wins. 0 disables hedging.
	ClusterHedgeAfter time.Duration
}

// VecMode selects tuple-at-a-time vs. vectorized execution (see
// Config.Vectorized).
type VecMode = exec.VecMode

// Vectorized execution modes.
const (
	VectorizedAuto = exec.VecAuto
	VectorizedOn   = exec.VecOn
	VectorizedOff  = exec.VecOff
)

// IndexMode selects the cached-column bitmap-index policy (see
// Config.Indexes).
type IndexMode = cache.IndexMode

// Bitmap-index policies.
const (
	IndexesAuto = cache.IndexAuto
	IndexesOn   = cache.IndexOn
	IndexesOff  = cache.IndexOff
)

// DB is a Proteus engine instance: a catalog of registered datasets plus
// the managers (memory, caching, statistics) queries compile against.
type DB struct {
	eng *engine.Engine
}

// Result is a materialized query result.
type Result = exec.Result

// QueryProfile is the observability record of one query: phase spans
// (parse → calculus → optimize → compile → execute), the parallel shape,
// and the per-operator profile tree.
type QueryProfile = obs.QueryProfile

// MetricsSnapshot is a point-in-time copy of the engine's cumulative
// counters, including per-phase latency summaries with p50/p95/p99.
type MetricsSnapshot = obs.Snapshot

// SlowQuery is one structured slow-query-log record (see
// Config.SlowQueryThreshold).
type SlowQuery = obs.SlowQuery

// PlanStats is one plan fingerprint's accumulated runtime feedback:
// executions, mean/stddev of total time, per-phase means, and the last
// execution-mode decision.
type PlanStats = obs.PlanStats

// Value is the engine's datum representation (nested records, collections,
// scalars).
type Value = types.Value

// Schema describes a flat or nested record type.
type Schema = types.RecordType

// Field is one schema field.
type Field = types.Field

// Scalar types for schema construction.
var (
	Int    = types.Int
	Float  = types.Float
	Bool   = types.Bool
	String = types.String
)

// ListOf builds a collection type for nested schemas.
func ListOf(elem types.Type) types.Type { return types.NewListType(elem) }

// Open creates a DB with the standard CSV, JSON, and binary plug-ins.
func Open(cfg Config) *DB {
	var coord *cluster.Coordinator
	if len(cfg.ClusterWorkers) > 0 {
		coord = cluster.New(cluster.Config{
			Workers:         cfg.ClusterWorkers,
			FragmentTimeout: cfg.ClusterFragmentTimeout,
			HedgeAfter:      cfg.ClusterHedgeAfter,
		})
	}
	return &DB{eng: engine.New(engine.Config{
		CacheEnabled:    cfg.CacheEnabled,
		CacheBudget:     cfg.CacheBudget,
		CacheStrings:    cfg.CacheStrings,
		Indexes:         cfg.Indexes,
		SampleEvery:     cfg.SampleEvery,
		Parallelism:     cfg.Parallelism,
		Observability:   cfg.Observability,
		ProfileRingSize: cfg.ProfileRingSize,
		OnQueryDone:     cfg.OnQueryDone,

		SlowQueryThreshold: cfg.SlowQueryThreshold,
		SlowQueryLogSize:   cfg.SlowQueryLogSize,
		SlowQueryWriter:    cfg.SlowQueryWriter,
		TraceMorsels:       cfg.TraceMorsels,
		PlanFeedbackSize:   cfg.PlanFeedbackSize,

		QueryTimeout:         cfg.QueryTimeout,
		QueryMemBudget:       cfg.QueryMemBudget,
		MaxConcurrentQueries: cfg.MaxConcurrentQueries,

		Vectorized:    cfg.Vectorized,
		PlanCacheSize: cfg.PlanCacheSize,
		Cluster:       coord,
	})}
}

// CSVOptions tunes CSV registration.
type CSVOptions struct {
	Delimiter byte // default ','
	Header    bool // first row holds column names
	// IndexStride is the positional structural index granularity: the byte
	// position of every Nth field of each row is kept (default 8).
	IndexStride int
}

// RegisterCSV registers a CSV file. With a nil schema, column types are
// inferred from the first data row. Registration performs the cold pass:
// the positional structural index is built (or dropped entirely if the file
// turns out to be fixed-width) and statistics are sampled.
func (db *DB) RegisterCSV(name, path string, schema *Schema, opts ...CSVOptions) error {
	var o CSVOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return db.eng.Register(name, path, "csv", schema, plugin.Options{
		Delimiter:   o.Delimiter,
		Header:      o.Header,
		IndexStride: o.IndexStride,
	})
}

// RegisterJSON registers a JSON file (newline-delimited objects or one
// top-level array of objects). The cold pass validates the input and builds
// the two-level structural index; if every object carries the same fields
// in the same order, Level 0 is dropped for the compressed deterministic
// form. The schema is inferred from the first object.
func (db *DB) RegisterJSON(name, path string) error {
	return db.eng.Register(name, path, "json", nil, plugin.Options{})
}

// RegisterBinary registers a relational binary file in this module's
// row-major or column-major format (see proteus/internal/plugin/binpg for
// the writer used by data generation pipelines).
func (db *DB) RegisterBinary(name, path string) error {
	return db.eng.Register(name, path, "bin", nil, plugin.Options{})
}

// RegisterInMemory registers raw bytes as a dataset without touching disk.
func (db *DB) RegisterInMemory(name string, data []byte, format string, schema *Schema) error {
	path := "mem://" + name
	db.eng.Mem().PutFile(path, data)
	return db.eng.Register(name, path, format, schema, plugin.Options{})
}

// Drop removes a dataset and every cache derived from it.
func (db *DB) Drop(name string) { db.eng.Drop(name) }

// Query parses, optimizes, compiles, and runs a SQL statement. A fresh
// specialized engine implementation is generated for the query (closure
// compilation — the Go analogue of the paper's LLVM code generation).
// Supported: SELECT (expressions, aggregates), FROM with aliases and
// JOIN…ON, WHERE, GROUP BY, ORDER BY <output column> [DESC], LIMIT.
func (db *DB) Query(sql string) (*Result, error) { return db.eng.QuerySQL(sql) }

// QueryComprehension runs a monoid-comprehension query:
//
//	for { x <- Dataset, y <- x.nested, predicate, ... } yield bag (e1, e2)
//
// Yield monoids: bag, list, sum, max, min, avg, count.
func (db *DB) QueryComprehension(comp string) (*Result, error) { return db.eng.QueryComp(comp) }

// QueryContext runs a query (SQL or comprehension, detected by the leading
// `for`) under the caller's context. Cancellation is cooperative: compiled
// scan loops poll between strides, pipeline phases check between vectors,
// and the life-cycle checks between phases — a cancelled query returns
// context.Canceled (or the cause) within milliseconds, and the DB stays
// fully usable.
func (db *DB) QueryContext(ctx context.Context, query string) (*Result, error) {
	if IsComprehension(query) {
		return db.eng.QueryCompContext(ctx, query)
	}
	return db.eng.QuerySQLContext(ctx, query)
}

// ExecContext runs a query for its side effects (cache population,
// statistics), discarding the result rows.
func (db *DB) ExecContext(ctx context.Context, query string) error {
	_, err := db.QueryContext(ctx, query)
	return err
}

// ErrClosed is returned for queries submitted after Close.
var ErrClosed = engine.ErrClosed

// Close drains the DB: new queries are rejected with ErrClosed immediately,
// queries already in flight run to completion, and Close returns once the
// engine is idle — or with ctx's cause when the deadline passes first
// (in-flight queries are not cancelled by the deadline; run them under
// cancellable contexts for a hard stop). Close is idempotent. The query
// service calls this during graceful shutdown, after the HTTP listener has
// stopped accepting work.
func (db *DB) Close(ctx context.Context) error { return db.eng.Close(ctx) }

// WithQueryTag attaches a correlation tag (e.g. an HTTP request ID) to a
// query context. Observed queries copy the tag into their QueryProfile and
// slow-query-log record, so one service request can be traced from access
// log to profile (/debug/queries) to slow record (/debug/slow).
func WithQueryTag(ctx context.Context, tag string) context.Context {
	return engine.WithQueryTag(ctx, tag)
}

// IsComprehension reports whether a query string is in the monoid
// comprehension language (it starts with the `for` keyword) rather than
// SQL. Query front doors use it to route mixed input.
func IsComprehension(query string) bool {
	q := strings.TrimSpace(query)
	return len(q) >= 3 && strings.EqualFold(q[:3], "for") &&
		(len(q) == 3 || q[3] == ' ' || q[3] == '\t' || q[3] == '\n' || q[3] == '{')
}

// Explain returns the optimized plan and per-query compilation decisions
// (cache hits, lazy unnests, …) without running the query. Both SQL and
// comprehension queries are accepted; comprehensions are detected by their
// leading `for`.
func (db *DB) Explain(query string) (string, error) {
	p, err := db.prepare(query)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

func (db *DB) prepare(query string) (*engine.Prepared, error) {
	if IsComprehension(query) {
		return db.eng.PrepareComp(query)
	}
	return db.eng.PrepareSQL(query)
}

// ExplainAnalyze executes the query (SQL or comprehension) with full
// per-operator instrumentation — row counts, batches, estimated vs. actual
// cardinalities, and per-operator wall time — and renders the profile:
//
//	out, err := db.ExplainAnalyze(`SELECT COUNT(*) FROM people p
//	                               JOIN events e ON p.id = e.pid`)
//	fmt.Println(out)
func (db *DB) ExplainAnalyze(query string) (string, error) {
	_, qp, err := db.ExplainAnalyzeProfile(query)
	if err != nil {
		return "", err
	}
	return obs.RenderProfile(qp), nil
}

// ExplainAnalyzeProfile is ExplainAnalyze returning the raw result and
// structured profile instead of rendered text.
func (db *DB) ExplainAnalyzeProfile(query string) (*Result, *QueryProfile, error) {
	if IsComprehension(query) {
		return db.eng.ExplainAnalyzeComp(query)
	}
	return db.eng.ExplainAnalyzeSQL(query)
}

// RenderProfile renders a query profile as the EXPLAIN ANALYZE text: phase
// timings, the parallel shape, and the operator tree with actual vs.
// estimated cardinalities.
func RenderProfile(q *QueryProfile) string { return obs.RenderProfile(q) }

// RenderSlowQuery renders one slow-query log record as human-readable text:
// the per-phase breakdown, worst cardinality misestimate, and per-query
// cache/index attribution.
func RenderSlowQuery(s *SlowQuery) string { return obs.RenderSlowQuery(s) }

// Metrics snapshots the engine's cumulative counters: queries, per-phase
// wall time, parallelism, scan plug-in totals, and cache activity.
func (db *DB) Metrics() MetricsSnapshot { return db.eng.Metrics() }

// RecentProfiles returns retained query profiles, newest first (requires
// Config.Observability, or EXPLAIN ANALYZE runs, to populate the ring).
func (db *DB) RecentProfiles() []*QueryProfile { return db.eng.RecentProfiles() }

// SlowQueries returns the retained slow-query log records, newest first
// (nil unless Config.SlowQueryThreshold is set).
func (db *DB) SlowQueries() []*SlowQuery { return db.eng.SlowQueries() }

// PlanFeedback returns the per-plan runtime feedback store's tracked
// stats, most-executed first.
func (db *DB) PlanFeedback() []PlanStats { return db.eng.PlanFeedback() }

// TraceJSON renders a retained query profile (id ≤ 0: the newest) as
// Chrome trace-event JSON, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. ok is false when the ring holds no matching profile.
func (db *DB) TraceJSON(id int64) (data []byte, ok bool) { return db.eng.TraceJSON(id) }

// MetricsHandler returns the opt-in HTTP observability surface:
//
//	go http.ListenAndServe("localhost:6060", db.MetricsHandler())
//
// Routes: /metrics (Prometheus text, incl. latency histograms),
// /debug/vars (expvar-style JSON), /debug/queries (recent profiles as
// JSON), /debug/trace?id=N (Chrome trace-event export), /debug/slow
// (slow-query log), /debug/plans (per-plan feedback), /debug/pprof/*.
func (db *DB) MetricsHandler() http.Handler { return db.eng.MetricsHandler() }

// CacheStats reports the adaptive cache state.
func (db *DB) CacheStats() cache.Stats { return db.eng.Caches().Snapshot() }

// StartStatsDaemon launches the paper's idle statistics daemon (§5.2): a
// background goroutine that periodically runs MIN/MAX statistics-gathering
// queries for numeric attributes that still lack range statistics. Call the
// returned function to stop it.
func (db *DB) StartStatsDaemon(interval time.Duration) (stop func()) {
	return db.eng.StartStatsDaemon(interval)
}

// GatherStatsOnce runs one statistics-gathering sweep synchronously.
func (db *DB) GatherStatsOnce() { db.eng.GatherStatsOnce() }

// Engine exposes the underlying engine for advanced integration (custom
// plug-ins via RegisterPlugin, direct plan execution).
func (db *DB) Engine() *engine.Engine { return db.eng }
