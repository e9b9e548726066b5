package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"proteus/internal/engine"
)

func digest(ins []input) string {
	h := sha256.New()
	for _, in := range ins {
		fmt.Fprintf(h, "%s %s %d\n", in.Name, in.Format, in.Rows)
		h.Write(in.data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSameSeedSameInputs(t *testing.T) {
	gen := map[string]func(seed uint64) []input{
		"tpch": func(seed uint64) []input { return tpchInputs(genTPCH(seed, 0.002), "csv", "json", "bin") },
		"spam": func(seed uint64) []input { return genSpam(seed, 500) },
	}
	for name, g := range gen {
		a, b, c := digest(g(7)), digest(g(7)), digest(g(8))
		if a != b {
			t.Errorf("%s: seed 7 gave two different input sets", name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

func TestAppendCentsMatchesStrconv(t *testing.T) {
	for _, f := range []float64{0, 0.01, 0.1, 1.05, 100, 999.99, 123456.78, 0.07, 0.3} {
		if got, want := string(appendCents(nil, f)), fmt.Sprintf("%.2f", f); got != want {
			t.Errorf("appendCents(%v) = %s, want %s", f, got, want)
		}
	}
}

// referenceAndEngine answers a few queries on a small TPC-H instance with
// the reference engine and with a parallel, vectorized, caching engine.
func referenceAndEngine(t *testing.T, qs []query) (map[string]*table, map[string]*table) {
	t.Helper()
	ins := tpchInputs(genTPCH(3, 0.002), "csv", "json", "bin")
	ref, err := referenceAnswers(ins, qs)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Config{CacheEnabled: true, Parallelism: 2})
	if _, err := register(e, ins); err != nil {
		t.Fatal(err)
	}
	got := map[string]*table{}
	for i := 0; i < 3; i++ { // the later runs read the caches
		for _, q := range qs {
			res, err := runQuery(e, q.text)
			if err != nil {
				t.Fatal(err)
			}
			got[q.text] = tableOf(res)
		}
	}
	return ref, got
}

func TestOutputCheck(t *testing.T) {
	qs := warmQueries(17)
	ref, got := referenceAndEngine(t, qs)
	for _, q := range qs {
		if err := compare(ref[q.text], got[q.text], q.keys, false); err != nil {
			t.Errorf("%s: correct answer rejected: %v", q.class, err)
		}
	}

	group := qs[3] // bin_group: several rows with ints and floats
	clone := func() *table {
		w := got[group.text]
		c := &table{cols: w.cols}
		for _, r := range w.rows {
			c.rows = append(c.rows, append([]cell(nil), r...))
		}
		return c
	}
	corruptions := map[string]func(*table){
		"int off by one":      func(c *table) { c.rows[0][1].i++ },
		"float off by 1e-9":   func(c *table) { c.rows[0][3].f *= 1 + 1e-9 },
		"row dropped":         func(c *table) { c.rows = c.rows[1:] },
		"row duplicated":      func(c *table) { c.rows[1] = c.rows[0] },
		"float becomes int":   func(c *table) { c.rows[0][3] = cell{kind: 'i', i: int64(c.rows[0][3].f)} },
		"column renamed":      func(c *table) { c.cols = append([]string{"x"}, c.cols[1:]...) },
		"value becomes null":  func(c *table) { c.rows[0][2] = cell{kind: 'n'} },
		"string value change": func(c *table) { c.rows[0][0] = cell{kind: 's', s: "1"} },
	}
	for name, corrupt := range corruptions {
		c := clone()
		corrupt(c)
		if err := compare(ref[group.text], c, nil, false); err == nil {
			t.Errorf("%s: corrupted answer accepted", name)
		}
	}
	c := clone()
	c.rows[0][3].f = math.Nextafter(c.rows[0][3].f, math.Inf(1))
	if err := compare(ref[group.text], c, nil, false); err != nil {
		t.Errorf("a float one ULP away was rejected: %v", err)
	}
}

func TestOrderedCheck(t *testing.T) {
	row := func(k int64, price float64) []cell { return []cell{{kind: 'i', i: k}, {kind: 'f', f: price}} }
	want := &table{cols: []string{"k", "p"}, rows: [][]cell{row(1, 9), row(2, 8), row(3, 8), row(4, 7), row(5, 7)}}
	tiesSwapped := &table{cols: want.cols, rows: [][]cell{row(1, 9), row(3, 8), row(2, 8), row(5, 7), row(6, 7)}}
	if err := compare(want, tiesSwapped, []int{1}, false); err != nil {
		t.Errorf("ties in another order, and another row of the last tied run, rejected: %v", err)
	}
	wrongOrder := &table{cols: want.cols, rows: [][]cell{row(2, 8), row(1, 9), row(3, 8), row(4, 7), row(5, 7)}}
	if compare(want, wrongOrder, []int{1}, false) == nil {
		t.Error("rows out of ORDER BY order accepted")
	}
	wrongTie := &table{cols: want.cols, rows: [][]cell{row(1, 9), row(2, 8), row(9, 8), row(4, 7), row(5, 7)}}
	if compare(want, wrongTie, []int{1}, false) == nil {
		t.Error("a wrong row inside a complete run of ties accepted")
	}
}

func TestNDJSONCheck(t *testing.T) {
	want := &table{cols: []string{"a", "b"}, rows: [][]cell{{{kind: 'i', i: 1}, {kind: 'f', f: 2}}, {{kind: 'i', i: 3}, {kind: 'f', f: 0.5}}}}
	body := `{"cols":["a","b"],"request_id":"r1"}
{"a":3,"b":0.5}
{"a":1,"b":2}
{"rows":2,"elapsed_ms":1.5,"request_id":"r1"}
`
	got, err := readNDJSON(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := compare(want, got, nil, true); err != nil {
		t.Errorf("wire answer rejected: %v", err)
	}
	if compare(want, got, nil, false) == nil {
		t.Error("an int where a float is due accepted outside the wire check")
	}
	for name, bad := range map[string]string{
		"truncated":     strings.Join(strings.Split(body, "\n")[:3], "\n") + "\n",
		"short trailer": strings.Replace(body, `"rows":2`, `"rows":3`, 1),
		"in-band error": strings.Replace(body, `{"rows":2,"elapsed_ms":1.5,"request_id":"r1"}`, `{"error":"boom"}`, 1),
	} {
		if _, err := readNDJSON(strings.NewReader(bad)); err == nil {
			t.Errorf("%s stream accepted", name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	t0 := time.Now()
	root := tr.begin("query", spanRef{}, 1, 0)
	tr.record("child", root, 1, 0, t0, 3*time.Millisecond)
	tr.record("child", root, 1, 0, t0, 2*time.Millisecond)
	time.Sleep(6 * time.Millisecond) // the root outlasts its children
	root.end()
	rows := map[string]layerRow{}
	for _, r := range tr.selfTimes() {
		rows[r.Name] = r
	}
	if rows["child"].Count != 2 || math.Abs(rows["child"].SelfMS-5) > 1e-9 {
		t.Errorf("child: %+v, want 2 spans with 5 ms self time", rows["child"])
	}
	if q := rows["query"]; math.Abs(q.TotalMS-q.SelfMS-5) > 1e-9 {
		t.Errorf("query: %+v, want self time = total - 5 ms", q)
	}
	var sb strings.Builder
	if err := tr.writeChrome(&sb); err != nil || !strings.Contains(sb.String(), `"ph":"X"`) {
		t.Errorf("chrome trace %q, %v", sb.String(), err)
	}
}

// TestServiceClients runs the two HTTP clients against a small service,
// traced, so the race detector sees the clients, the tracer and the
// service side by side.
func TestServiceClients(t *testing.T) {
	f, err := newService(9, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	if err := f.reference(); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	recs, _ := loop(f, 300*time.Millisecond, tr)
	for c, r := range recs {
		if len(r.samples) == 0 || r.failed != 0 {
			t.Errorf("client %d: %d of %d requests failed: %v", c, r.failed, len(r.samples), r.errs)
		}
	}
	if len(tr.selfTimes()) == 0 {
		t.Error("no spans recorded")
	}
}

// TestWorkloadsRunClean runs every workload for one measured second and
// requires every answer to match the reference.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up every workload at full size")
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(name, 5, time.Second, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d answers failed", name, traced, res.Failed, res.Attempted)
			}
		}
	}
}
