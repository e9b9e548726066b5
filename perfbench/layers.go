package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"proteus"
	"proteus/internal/calculus"
	"proteus/internal/comp"
	"proteus/internal/engine"
	"proteus/internal/exec"
	"proteus/internal/obs"
	"proteus/internal/optimizer"
	"proteus/internal/plugin"
	"proteus/internal/sql"
)

// query is one statement of a workload's mix.
type query struct {
	class   string
	text    string   // SQL, or a comprehension starting with "for"
	keys    []int    // output columns of the ORDER BY, whose order is checked
	touches []string // datasets read
}

// perLayerUnits lists the traced run's metrics (BENCHMARK.json's per_layer
// list). A metric of a layer a workload does not reach reads 0.
func perLayerUnits() map[string]string {
	u := map[string]string{
		"sql.parse_us":                 "us",
		"calculus.translate_us":        "us",
		"optimizer.optimize_us":        "us",
		"exec.compile_us":              "us",
		"exec.run_ms":                  "ms",
		"exec.alloc_mb_per_query":      "MB",
		"exec.allocs_per_query":        "count",
		"plugin.register_ms.bin":       "ms",
		"plugin.register_ms.csv":       "ms",
		"plugin.register_ms.json":      "ms",
		"plugin.first_touch_ms.csv":    "ms",
		"plugin.first_touch_ms.json":   "ms",
		"plugin.bytes_read_per_row":    "B",
		"plugin.fields_parsed_per_row": "count",
		"storage.file_mb":              "MB",
		"cache.hit_ratio":              "ratio",
		"cache.build_ms":               "ms",
		"cache.mb":                     "MB",
		"cache.evictions":              "count",
		"cache.index_builds":           "count",
		"cache.index_hits":             "count",
		"cache.zone_skips":             "count",
		"engine.plan_cache_hit_ratio":  "ratio",
		"engine.mode_explore_ratio":    "ratio",
		"engine.admission_wait_ms":     "ms",
		"server.ttfb_ms":               "ms",
		"server.stream_ms":             "ms",
		"server.response_kb":           "KB",
		"cluster.fragments_per_query":  "count",
		"cluster.fallback_ratio":       "ratio",
		"cluster.retries":              "count",
		"cluster.fragment_ms":          "ms",
		"cluster.fragment_kb":          "KB",
		"cluster.decode_us":            "us",
		"cluster.local_ratio":          "ratio",
		"trace.overhead_session":       "ratio",
		"trace.overhead_qps":           "ratio",
	}
	// warm_mix's query classes get their own exec figures.
	for _, q := range warmQueries(0) {
		u["exec.run_ms."+q.class] = "ms"
		u["exec.alloc_mb_per_query."+q.class] = "MB"
		u["exec.allocs_per_query."+q.class] = "count"
	}
	return u
}

// engineStats are the counters the per-layer metrics read, summed over
// the engines a workload runs.
type engineStats struct {
	snap    obs.Snapshot
	files   int64
	cluster bool // a coordinator is among the engines
}

func statsOf(engines ...*engine.Engine) engineStats {
	var s engineStats
	for _, e := range engines {
		s = s.plus(engineStats{snap: e.Metrics(), files: e.Mem().FileBytes()})
	}
	return s
}

func (a engineStats) plus(b engineStats) engineStats {
	x, y := &a.snap, b.snap
	x.Queries += y.Queries
	x.PlanCacheHits += y.PlanCacheHits
	x.PlanCacheMisses += y.PlanCacheMisses
	x.ClusterQueries += y.ClusterQueries
	x.ClusterFragments += y.ClusterFragments
	x.ClusterRetries += y.ClusterRetries
	x.AdmissionWait.Count += y.AdmissionWait.Count
	x.AdmissionWait.SumSeconds += y.AdmissionWait.SumSeconds
	c, d := &x.Cache, y.Cache
	c.Bytes += d.Bytes
	c.Hits += d.Hits
	c.Misses += d.Misses
	c.Evictions += d.Evictions
	c.BuildNanos += d.BuildNanos
	c.IndexBuilds += d.IndexBuilds
	c.IndexHits += d.IndexHits
	c.ZoneSkips += d.ZoneSkips
	x.ModeDecisions = append(append([]obs.ModeDecisionCount(nil), x.ModeDecisions...), y.ModeDecisions...)
	a.files += b.files
	return a
}

// tracedRun makes the per-layer measurements: the workload's own layer
// split, then rounds of the ordinary loop that alternate between spans off
// and on, from which come the counter deltas and the tracing overhead.
func tracedRun(fx fixture, seconds time.Duration, rep *report, outDir string) (metrics, []*recorder, error) {
	m := metrics{}
	for n := range perLayerUnits() {
		m[n] = 0
	}
	tr := newTracer()
	layerRec := &recorder{}
	if err := fx.layers(tr, m, layerRec); err != nil {
		return nil, nil, err
	}
	recs := []*recorder{layerRec}

	before := fx.stats()
	var (
		wall    [2][]float64 // per round, [untraced, traced]
		queries [2]int
		rounds  int
	)
	start := time.Now()
	for i := 0; i < 4 || time.Since(start) < seconds; i++ {
		mode := i % 2
		var t *tracer
		if mode == 1 {
			t = tr
		}
		rr, d := round(fx, t)
		recs = append(recs, rr...)
		wall[mode] = append(wall[mode], d.Seconds())
		for _, r := range rr {
			queries[mode] += len(r.samples)
		}
		rounds++
	}
	after := fx.stats()
	counterMetrics(m, before, after, rounds, queries[0]+queries[1])
	m["storage.file_mb"] = float64(after.files) / (1 << 20)
	m["cache.mb"] = float64(after.snap.Cache.Bytes) / (1 << 20)
	m["trace.overhead_session"] = median(wall[1]) / median(wall[0])
	m["trace.overhead_qps"] = (float64(queries[1]) / sum(wall[1])) / (float64(queries[0]) / sum(wall[0]))

	var ttfb, stream, kb []float64 // per response; reported as means
	for _, r := range recs {
		for _, s := range r.samples {
			if s.bytes > 0 {
				ttfb = append(ttfb, ms(s.ttfb))
				stream = append(stream, ms(s.lat-s.ttfb))
				kb = append(kb, float64(s.bytes)/1024)
			}
		}
	}
	if len(kb) > 0 {
		n := float64(len(kb))
		m["server.ttfb_ms"] = sum(ttfb) / n
		m["server.stream_ms"] = sum(stream) / n
		m["server.response_kb"] = sum(kb) / n
	}

	rep.Layers = tr.selfTimes()
	rep.TraceFile = filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", rep.Workload, rep.Seed))
	f, err := os.Create(rep.TraceFile)
	if err != nil {
		return nil, nil, err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	return m, recs, f.Close()
}

// round runs one pass per caller, concurrently.
func round(fx fixture, tr *tracer) ([]*recorder, time.Duration) {
	recs := make([]*recorder, fx.callers())
	done := make(chan struct{})
	start := time.Now()
	for c := range recs {
		recs[c] = &recorder{}
		go func(c int) {
			defer func() { done <- struct{}{} }()
			if err := fx.pass(c, recs[c], tr); err != nil {
				recs[c].add(sample{class: "pass"}, err)
			}
		}(c)
	}
	for range recs {
		<-done
	}
	return recs, time.Since(start)
}

// counterMetrics turns engine counter deltas over the counted rounds into
// per-layer metrics; counts are per round (one pass of every caller).
func counterMetrics(m metrics, before, after engineStats, rounds, queries int) {
	b, a := before.snap, after.snap
	ratio := func(x, y int64) float64 {
		if x+y == 0 {
			return 0
		}
		return float64(x) / float64(x+y)
	}
	perPass := func(d int64) float64 { return float64(d) / float64(rounds) }
	hits, misses := a.Cache.Hits-b.Cache.Hits, a.Cache.Misses-b.Cache.Misses
	m["cache.hit_ratio"] = ratio(hits, misses)
	m["cache.build_ms"] = perPass(a.Cache.BuildNanos-b.Cache.BuildNanos) / 1e6
	m["cache.evictions"] = perPass(a.Cache.Evictions - b.Cache.Evictions)
	m["cache.index_builds"] = perPass(a.Cache.IndexBuilds - b.Cache.IndexBuilds)
	m["cache.index_hits"] = perPass(a.Cache.IndexHits - b.Cache.IndexHits)
	m["cache.zone_skips"] = perPass(a.Cache.ZoneSkips - b.Cache.ZoneSkips)
	m["engine.plan_cache_hit_ratio"] = ratio(a.PlanCacheHits-b.PlanCacheHits, a.PlanCacheMisses-b.PlanCacheMisses)
	var explore, decisions int64
	for _, d := range a.ModeDecisions {
		decisions += d.Count
		if d.Source == "explore" {
			explore += d.Count
		}
	}
	if decisions > 0 {
		m["engine.mode_explore_ratio"] = float64(explore) / float64(decisions)
	}
	if n := a.AdmissionWait.Count - b.AdmissionWait.Count; n > 0 {
		m["engine.admission_wait_ms"] = (a.AdmissionWait.SumSeconds - b.AdmissionWait.SumSeconds) * 1e3 / float64(n)
	}
	if after.cluster && queries > 0 {
		m["cluster.fragments_per_query"] = float64(a.ClusterFragments-b.ClusterFragments) / float64(queries)
		m["cluster.fallback_ratio"] = 1 - float64(a.ClusterQueries-b.ClusterQueries)/float64(queries)
		m["cluster.retries"] = perPass(a.ClusterRetries - b.ClusterRetries)
	}
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// register puts each input into the engine's file store and registers it
// in situ, returning the registration time per format.
func register(e *engine.Engine, ins []input) (map[string]time.Duration, error) {
	took := map[string]time.Duration{}
	for _, in := range ins {
		path := "mem://" + in.Name
		e.Mem().PutFile(path, in.data)
		t0 := time.Now()
		if err := e.Register(in.Name, path, in.Format, in.schema, plugin.Options{IndexStride: in.stride}); err != nil {
			return nil, fmt.Errorf("registering %s: %w", in.Name, err)
		}
		took[in.Format] += time.Since(t0)
	}
	return took, nil
}

// runQuery sends a statement through the engine's ordinary path: plan
// cache, admission, and distributed execution when the engine coordinates.
func runQuery(e *engine.Engine, text string) (*exec.Result, error) {
	if proteus.IsComprehension(text) {
		return e.QueryComp(text)
	}
	return e.QuerySQL(text)
}

// referenceAnswers runs every query once on a serial, tuple-at-a-time,
// cache-less engine over the same bytes.
func referenceAnswers(ins []input, qs []query) (map[string]*table, error) {
	e := engine.New(engine.Config{Parallelism: 1, Vectorized: exec.VecOff, PlanCacheSize: -1})
	if _, err := register(e, ins); err != nil {
		return nil, err
	}
	ref := map[string]*table{}
	for _, q := range qs {
		if ref[q.text] != nil {
			continue
		}
		res, err := runQuery(e, q.text)
		if err != nil {
			return nil, fmt.Errorf("reference for %q: %w", q.text, err)
		}
		ref[q.text] = tableOf(res)
	}
	return ref, nil
}

// checked runs q through the ordinary path inside a span and records the
// latency and the outcome of the answer check.
func checked(e *engine.Engine, q query, ref map[string]*table, rec *recorder, tr *tracer, caller int, qid int64) {
	sp := tr.begin("engine.query:"+q.class, spanRef{}, qid, caller)
	t0 := time.Now()
	res, err := runQuery(e, q.text)
	lat := time.Since(t0)
	sp.end()
	if err == nil {
		err = compare(ref[q.text], tableOf(res), q.keys, false)
	}
	rec.add(sample{class: q.class, lat: lat, ttfb: lat}, err)
}

// layerSplit accumulates the traced pass's per-layer times and allocation.
type layerSplit struct {
	parse, translate, optimize, compile time.Duration
	queries                             int
	run                                 map[string]time.Duration
	alloc, mallocs                      map[string]uint64
	count                               map[string]int
}

func newLayerSplit() *layerSplit {
	return &layerSplit{run: map[string]time.Duration{}, alloc: map[string]uint64{}, mallocs: map[string]uint64{}, count: map[string]int{}}
}

// splitQuery calls each layer's public function in turn — sql/comp parse,
// calculus resolve+normalize+translate, optimizer.Optimize, then the
// engine's Prepare (which repeats the three and compiles) and
// Program.RunContext — with a span around each call. It bypasses the plan
// cache and admission, so it splits cost by layer but is not an
// end-to-end measurement. Compile time is Prepare minus the three before it.
func splitQuery(tr *tracer, e *engine.Engine, q query, ref map[string]*table, ls *layerSplit, qid int64) (time.Duration, error) {
	root := tr.begin("query:"+q.class, spanRef{}, qid, 0)
	defer root.end()
	parse := func() (*calculus.Comprehension, error) {
		if proteus.IsComprehension(q.text) {
			return comp.Parse(q.text)
		}
		return sql.Parse(q.text)
	}
	sp := tr.begin("sql.parse", root, qid, 0)
	c, err := parse()
	dParse := sp.end()
	if err != nil {
		return 0, err
	}
	sp = tr.begin("calculus.translate", root, qid, 0)
	if err := calculus.ResolveColumns(c, e); err != nil {
		return 0, err
	}
	plan, err := calculus.Translate(calculus.Normalize(c), e)
	dTranslate := sp.end()
	if err != nil {
		return 0, err
	}
	sp = tr.begin("optimizer.optimize", root, qid, 0)
	optimizer.Optimize(plan, &optimizer.Env{Stats: e.Stats(), Costs: e})
	dOptimize := sp.end()

	sp = tr.begin("engine.prepare", root, qid, 0)
	var p *engine.Prepared
	if proteus.IsComprehension(q.text) {
		p, err = e.PrepareComp(q.text)
	} else {
		p, err = e.PrepareSQL(q.text)
	}
	dPrepare := sp.end()
	if err != nil {
		return 0, err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp = tr.begin("exec.run", root, qid, 0)
	res, err := p.Program.RunContext(context.Background())
	dRun := sp.end()
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, err
	}
	ls.parse += dParse
	ls.translate += dTranslate
	ls.optimize += dOptimize
	if d := dPrepare - dParse - dTranslate - dOptimize; d > 0 {
		ls.compile += d
	}
	ls.queries++
	for _, k := range []string{"", q.class} {
		ls.run[k] += dRun
		ls.alloc[k] += after.TotalAlloc - before.TotalAlloc
		ls.mallocs[k] += after.Mallocs - before.Mallocs
		ls.count[k]++
	}
	return dRun, compare(ref[q.text], tableOf(res), q.keys, false)
}

// into writes the accumulated split as per-query means.
func (ls *layerSplit) into(m metrics) {
	if ls.queries == 0 {
		return
	}
	n := float64(ls.queries)
	m["sql.parse_us"] = float64(ls.parse.Nanoseconds()) / 1e3 / n
	m["calculus.translate_us"] = float64(ls.translate.Nanoseconds()) / 1e3 / n
	m["optimizer.optimize_us"] = float64(ls.optimize.Nanoseconds()) / 1e3 / n
	m["exec.compile_us"] = float64(ls.compile.Nanoseconds()) / 1e3 / n
	for k, c := range ls.count {
		suffix := ""
		if k != "" {
			suffix = "." + k
			if _, ok := m["exec.run_ms"+suffix]; !ok {
				continue // only warm_mix's classes are reported per class
			}
		}
		m["exec.run_ms"+suffix] = ms(ls.run[k]) / float64(c)
		m["exec.alloc_mb_per_query"+suffix] = float64(ls.alloc[k]) / (1 << 20) / float64(c)
		m["exec.allocs_per_query"+suffix] = float64(ls.mallocs[k]) / float64(c)
	}
}

// splitPasses runs qs through the layer split on e, passes times, and
// writes the per-query means.
func splitPasses(tr *tracer, e *engine.Engine, qs []query, ref map[string]*table, passes int, m metrics, rec *recorder, qid *int64) {
	ls := newLayerSplit()
	for p := 0; p < passes; p++ {
		for _, q := range qs {
			*qid++
			run, err := splitQuery(tr, e, q, ref, ls, *qid)
			rec.add(sample{class: q.class, lat: run, ttfb: run}, err)
		}
	}
	ls.into(m)
}

// coldPass registers ins on a fresh engine built from cfg, with per-query
// profiles on, and runs qs once through the ordinary path. It reports the
// scan plug-ins' cold figures: registration time per format, the latency
// of the first query touching a CSV and a JSON dataset, and the bytes read
// and fields parsed per input row of the datasets each query reads.
func coldPass(cfg engine.Config, ins []input, qs []query, ref map[string]*table, m metrics, rec *recorder) error {
	var bytesRead, fields int64
	cfg.Observability = true
	cfg.OnQueryDone = func(p obs.QueryProfile) {
		bytesRead += p.Attr.BytesRead
		fields += p.Attr.FieldsParsed
	}
	e := engine.New(cfg)
	took, err := register(e, ins)
	if err != nil {
		return err
	}
	for f, d := range took {
		m["plugin.register_ms."+f] = ms(d)
	}
	byName := map[string]input{}
	for _, in := range ins {
		byName[in.Name] = in
	}
	var inRows int
	touched := map[string]bool{}
	for _, q := range qs {
		before := len(rec.samples)
		checked(e, q, ref, rec, nil, 0, 0)
		for _, d := range q.touches {
			inRows += byName[d].Rows
			f := byName[d].Format
			if (f == "csv" || f == "json") && !touched[f] {
				touched[f] = true
				m["plugin.first_touch_ms."+f] = ms(rec.samples[before].lat)
			}
		}
	}
	m["plugin.bytes_read_per_row"] = float64(bytesRead) / float64(inRows)
	m["plugin.fields_parsed_per_row"] = float64(fields) / float64(inRows)
	return nil
}
