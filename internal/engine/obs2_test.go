// Observability v2 engine tests: the Chrome trace-export endpoint
// (the PR's acceptance criterion), the slow-query log end to end, the
// per-plan feedback store on both the plain and observed query paths,
// latency histograms in the metrics surface, morsel-event sampling, and a
// mixed serial/parallel race over one shared engine.
package engine

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"proteus/internal/obs"
)

// TestDebugTraceChromeJSON is the acceptance criterion: /debug/trace?id=N
// for a parallel query must serve valid Chrome trace-event JSON — the array
// form, every event carrying ph/ts/pid/tid, spans as "X" events with dur —
// with thread rows for each worker.
func TestDebugTraceChromeJSON(t *testing.T) {
	e := New(Config{Observability: true, Parallelism: 4, TraceMorsels: 1})
	registerParallelFixtures(t, e)
	if _, err := e.QuerySQL("SELECT COUNT(*) FROM big WHERE val < 50"); err != nil {
		t.Fatal(err)
	}
	qp := e.RecentProfiles()[0]
	if qp.Workers <= 1 {
		t.Fatalf("fixture query ran with %d workers, want > 1", qp.Workers)
	}

	srv := httptest.NewServer(e.MetricsHandler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/trace?id=" + jsonNumber(qp.ID))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, ".trace.json") {
		t.Errorf("content disposition = %q", cd)
	}
	body := readAll(t, resp)
	if !strings.HasPrefix(strings.TrimSpace(body), "[") {
		t.Fatalf("trace must be the JSON array form, got %.40q", body)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	workerRows := map[float64]bool{}
	var sawQuerySpan, sawExecutePhase bool
	for i, ev := range events {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing required key %q: %v", i, key, ev)
			}
		}
		if ev["pid"].(float64) != float64(qp.ID) {
			t.Errorf("event %d pid = %v, want the query ID %d", i, ev["pid"], qp.ID)
		}
		ph := ev["ph"].(string)
		if ph != "X" && ph != "M" && ph != "i" {
			t.Errorf("event %d has unexpected phase type %q", i, ph)
		}
		if ph == "X" {
			if _, ok := ev["dur"].(float64); !ok {
				t.Errorf("complete event %d has no dur: %v", i, ev)
			}
			if ev["name"] == "query" {
				sawQuerySpan = true
			}
			if ev["name"] == obs.PhaseExecute {
				sawExecutePhase = true
			}
			if tid := ev["tid"].(float64); tid >= 1 {
				workerRows[tid] = true
			}
		}
	}
	if !sawQuerySpan || !sawExecutePhase {
		t.Errorf("trace missing top-level spans: query=%v execute=%v", sawQuerySpan, sawExecutePhase)
	}
	if len(workerRows) != qp.Workers {
		t.Errorf("trace has %d worker thread rows, want %d", len(workerRows), qp.Workers)
	}

	// Omitting id serves the newest profile.
	resp, err = srv.Client().Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Errorf("no-id status = %d, want 200 (newest profile)", resp.StatusCode)
	}
	resp.Body.Close()
	// Unknown and malformed ids fail cleanly.
	resp, _ = srv.Client().Get(srv.URL + "/debug/trace?id=999999")
	if resp.StatusCode != 404 {
		t.Errorf("unknown id status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = srv.Client().Get(srv.URL + "/debug/trace?id=bogus")
	if resp.StatusCode != 400 {
		t.Errorf("malformed id status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

func jsonNumber(id int64) string {
	b, _ := json.Marshal(id)
	return string(b)
}

// TestSlowQueryLogEndToEnd configures a 1ns threshold (every query is slow),
// a 2-entry ring, and a JSONL sink — on an engine with Observability OFF, so
// it also checks the slow log alone forces the profiled path.
func TestSlowQueryLogEndToEnd(t *testing.T) {
	var sink bytes.Buffer
	e := newTestEngine(t, Config{
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLogSize:   2,
		SlowQueryWriter:    &sink,
	})
	queries := []string{
		"SELECT COUNT(*) FROM nums",
		"SELECT SUM(val) FROM nums WHERE id > 1",
		joinAggSQL,
	}
	for _, q := range queries {
		if _, err := e.QuerySQL(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if got := e.Metrics().SlowQueries; got != 3 {
		t.Errorf("slow_queries metric = %d, want 3", got)
	}
	slow := e.SlowQueries()
	if len(slow) != 2 {
		t.Fatalf("retained slow queries = %d, want ring bound 2", len(slow))
	}
	if slow[0].Query != queries[2] || slow[1].Query != queries[1] {
		t.Errorf("slow log order = %q, %q, want newest first", slow[0].Query, slow[1].Query)
	}
	rec := slow[0]
	if rec.TotalNanos <= 0 || rec.Fingerprint == "" || rec.Lang != LangSQL {
		t.Errorf("record = %+v", rec)
	}
	if rec.PhaseNanos[obs.PhaseExecute] <= 0 {
		t.Errorf("record has no execute phase: %v", rec.PhaseNanos)
	}
	if rec.Attr.BytesRead <= 0 {
		t.Errorf("record attributes no bytes read: %+v", rec.Attr)
	}

	// The sink got one parseable JSON line per slow query, including evicted
	// ones.
	var lines int
	sc := bufio.NewScanner(&sink)
	for sc.Scan() {
		var row obs.SlowQuery
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("sink line %d is not JSON: %v", lines+1, err)
		}
		lines++
	}
	if lines != 3 {
		t.Errorf("sink lines = %d, want 3", lines)
	}

	// /debug/slow serves the retained records.
	srv := httptest.NewServer(e.MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	var served []obs.SlowQuery
	if err := json.Unmarshal([]byte(readAll(t, resp)), &served); err != nil {
		t.Fatalf("/debug/slow is not JSON: %v", err)
	}
	if len(served) != 2 || served[0].Query != queries[2] {
		t.Errorf("/debug/slow = %d records, first %q", len(served), served[0].Query)
	}
}

func TestSlowLogThresholdFiltersFastQueries(t *testing.T) {
	e := newTestEngine(t, Config{SlowQueryThreshold: time.Hour})
	if _, err := e.QuerySQL("SELECT COUNT(*) FROM nums"); err != nil {
		t.Fatal(err)
	}
	if got := e.SlowQueries(); len(got) != 0 {
		t.Errorf("fast query landed in the slow log: %v", got)
	}
	if got := e.Metrics().SlowQueries; got != 0 {
		t.Errorf("slow_queries metric = %d, want 0", got)
	}
}

// TestPlanFeedbackBothPaths checks the feedback store accumulates from the
// plain (unobserved) path and, with per-phase means, from the observed path.
func TestPlanFeedbackBothPaths(t *testing.T) {
	// Plain path: observability off, no slow log — queries run unprofiled,
	// yet feedback still accumulates totals keyed by plan fingerprint.
	plain := newTestEngine(t, Config{})
	const q = "SELECT COUNT(*) FROM nums WHERE val > 15"
	for i := 0; i < 3; i++ {
		if _, err := plain.QuerySQL(q); err != nil {
			t.Fatal(err)
		}
	}
	stats := plain.PlanFeedback()
	if len(stats) != 1 {
		t.Fatalf("tracked plans = %d, want 1", len(stats))
	}
	st := stats[0]
	if st.Executions != 3 || st.Query != q || st.MeanNanos <= 0 || st.Fingerprint == "" {
		t.Errorf("plain-path stats = %+v", st)
	}
	if st.Rows != 3 {
		t.Errorf("rows = %d, want 3 (one result row per run)", st.Rows)
	}
	if st.PhaseMeanNanos[obs.PhaseIndex(obs.PhaseExecute)] != 0 {
		t.Error("plain path must not claim per-phase means")
	}
	if got := plain.Metrics().PlanStatsTracked; got != 1 {
		t.Errorf("plan_stats_tracked = %d, want 1", got)
	}

	// Observed path: per-phase means fill in, and the fingerprint matches
	// the profile's.
	observed := newTestEngine(t, Config{Observability: true})
	for i := 0; i < 2; i++ {
		if _, err := observed.QuerySQL(q); err != nil {
			t.Fatal(err)
		}
	}
	fp := observed.RecentProfiles()[0].Fingerprint
	if fp == "" {
		t.Fatal("observed profile has no fingerprint")
	}
	ost, ok := observed.PlanFeedbackFor(fp)
	if !ok {
		t.Fatalf("no feedback for fingerprint %q", fp)
	}
	if ost.Executions != 2 {
		t.Errorf("executions = %d, want 2", ost.Executions)
	}
	if ost.PhaseMeanNanos[obs.PhaseIndex(obs.PhaseExecute)] <= 0 {
		t.Errorf("observed path recorded no execute-phase mean: %v", ost.PhaseMeanNanos)
	}
	if ost.Mode != "tuple" || ost.ModeSource != "heuristic" {
		t.Errorf("mode decision = %s (%s), want tuple (heuristic) for a 5-row scan", ost.Mode, ost.ModeSource)
	}

	// Disabled store: negative size tracks nothing.
	off := newTestEngine(t, Config{PlanFeedbackSize: -1})
	if _, err := off.QuerySQL(q); err != nil {
		t.Fatal(err)
	}
	if got := off.PlanFeedback(); got != nil {
		t.Errorf("disabled store tracked %v", got)
	}

	// /debug/plans serves the store.
	srv := httptest.NewServer(observed.MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/plans")
	if err != nil {
		t.Fatal(err)
	}
	var served []obs.PlanStats
	if err := json.Unmarshal([]byte(readAll(t, resp)), &served); err != nil {
		t.Fatalf("/debug/plans is not JSON: %v", err)
	}
	if len(served) != 1 || served[0].Fingerprint != fp {
		t.Errorf("/debug/plans = %+v", served)
	}
}

// TestLatencyHistogramsSurface checks queries land in the log-bucketed
// histograms and surface through the snapshot summaries and the Prometheus
// exposition.
func TestLatencyHistogramsSurface(t *testing.T) {
	e := newTestEngine(t, Config{Observability: true})
	for i := 0; i < 4; i++ {
		if _, err := e.QuerySQL("SELECT COUNT(*) FROM nums"); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Metrics()
	var total *obs.LatencySummary
	for i := range snap.Latency {
		if snap.Latency[i].Phase == "total" {
			total = &snap.Latency[i]
		}
	}
	if total == nil {
		t.Fatalf("no end-to-end latency summary in %+v", snap.Latency)
	}
	if total.Count != 4 || total.P50 <= 0 || total.P99 < total.P50 {
		t.Errorf("total latency summary = %+v", total)
	}
	prom := snap.Prometheus()
	for _, want := range []string{
		`proteus_query_duration_seconds_bucket{phase="total",le="+Inf"} 4`,
		`proteus_query_duration_seconds_bucket{phase="execute",le="+Inf"} 4`,
		`proteus_query_duration_seconds_sum{phase="total"}`,
		`proteus_query_duration_seconds_count{phase="total"} 4`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestObsSamplingResultsUnchanged runs the representative queries on a
// fully loaded observability config — morsel events sampled on every query,
// slow log at 1ns — and requires byte-identical results vs. a bare engine.
func TestObsSamplingResultsUnchanged(t *testing.T) {
	queries := []string{
		joinAggSQL,
		"SELECT grp, COUNT(*), MAX(id) FROM docs GROUP BY grp",
		"SELECT name, val FROM nums WHERE score > 2 ORDER BY val DESC LIMIT 2",
	}
	plain := newTestEngine(t, Config{})
	sampled := newTestEngine(t, Config{
		Observability:      true,
		TraceMorsels:       1,
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryWriter:    io.Discard,
	})
	for _, q := range queries {
		want, err := plain.QuerySQL(q)
		if err != nil {
			t.Fatalf("%s (plain): %v", q, err)
		}
		got, err := sampled.QuerySQL(q)
		if err != nil {
			t.Fatalf("%s (sampled): %v", q, err)
		}
		if len(want.Rows) != len(got.Rows) {
			t.Fatalf("%s: row counts differ: %d vs %d", q, len(want.Rows), len(got.Rows))
		}
		for i := range want.Rows {
			if want.Rows[i].String() != got.Rows[i].String() {
				t.Errorf("%s row %d: %s vs %s", q, i, want.Rows[i], got.Rows[i])
			}
		}
	}
	// Sampling actually recorded morsel events: the newest profile's execute
	// phase carries a worker span with morsel children.
	qp := sampled.RecentProfiles()[0]
	var withEvents bool
	for _, ph := range qp.Phases {
		if ph.Name != obs.PhaseExecute {
			continue
		}
		for _, ws := range ph.Children {
			if len(ws.Children) > 0 {
				withEvents = true
			}
		}
	}
	if !withEvents {
		t.Errorf("TraceMorsels=1 recorded no morsel events:\n%s", obs.RenderProfile(qp))
	}
}

// TestObsSharedEngineMixedRace hammers one fully instrumented engine with
// serial and parallel queries from many goroutines while readers snapshot
// every surface. Run under -race in CI.
func TestObsSharedEngineMixedRace(t *testing.T) {
	e := New(Config{
		Observability:      true,
		Parallelism:        4,
		TraceMorsels:       2,
		ProfileRingSize:    4,
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryWriter:    io.Discard,
	})
	registerParallelFixtures(t, e)
	queries := []string{
		"SELECT COUNT(*) FROM big WHERE val < 50",       // parallel
		"SELECT grp, COUNT(*) FROM events GROUP BY grp", // parallel-ish
		"SELECT COUNT(*) FROM pts WHERE v > 3.0",        // binary scan
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				q := queries[(g+i)%len(queries)]
				if _, err := e.QuerySQL(q); err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
			}
		}(g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				_ = e.Metrics()
				_ = e.SlowQueries()
				_ = e.PlanFeedback()
				_, _ = e.TraceJSON(0)
			}
		}()
	}
	wg.Wait()
	if got := e.Metrics().Queries; got != 16 {
		t.Errorf("queries = %d, want 16", got)
	}
	if got := e.Metrics().SlowQueries; got != 16 {
		t.Errorf("slow queries = %d, want 16 (1ns threshold)", got)
	}
	if got := len(e.PlanFeedback()); got != len(queries) {
		t.Errorf("tracked plans = %d, want %d", got, len(queries))
	}
}
