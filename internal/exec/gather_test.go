package exec_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"proteus/internal/algebra"
	"proteus/internal/engine"
	"proteus/internal/exec"
	"proteus/internal/expr"
	"proteus/internal/plugin"
	"proteus/internal/types"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/frames/*.ndjson from the current encoder")

// gatherDocs has NULL keys in both GROUP BY columns, a group (k=3) whose
// every aggregate argument is NULL, and negative and fractional values.
const gatherDocs = `{"k": 1, "g": "a", "x": 10, "f": 1.5, "s": "p"}
{"k": null, "g": "b", "x": null, "f": null, "s": null}
{"k": 2, "g": "a", "x": -3, "f": -0.25, "s": "q"}
{"k": 1, "g": null, "x": 7, "f": 2.0, "s": "r"}
{"k": 3, "g": "c", "x": null, "f": null, "s": null}
{"k": null, "g": "b", "x": 4, "f": 1e300, "s": "pp"}
`

// gatherEngine registers gatherDocs as the typed JSON dataset d.
func gatherEngine(t testing.TB) (*engine.Engine, *types.RecordType) {
	t.Helper()
	e := engine.New(engine.Config{})
	e.Mem().PutFile("mem://d.json", []byte(gatherDocs))
	schema := types.NewRecordType(
		types.Field{Name: "k", Type: types.Int},
		types.Field{Name: "g", Type: types.String},
		types.Field{Name: "x", Type: types.Int},
		types.Field{Name: "f", Type: types.Float},
		types.Field{Name: "s", Type: types.String},
	)
	if err := e.Register("d", "mem://d.json", "json", schema, plugin.Options{}); err != nil {
		t.Fatal(err)
	}
	return e, schema
}

// gatherPlans returns one plan per fragment wire shape.
func gatherPlans(schema *types.RecordType) map[string]algebra.Node {
	scan := func() algebra.Node { return &algebra.Scan{Dataset: "d", Binding: "d", Type: schema} }
	fld := func(n string) expr.Expr { return fieldOf("d", n) }
	groupAggs := []expr.Agg{
		{Kind: expr.AggCount},
		{Kind: expr.AggSum, Arg: fld("x")},
		{Kind: expr.AggMax, Arg: fld("x")},
		{Kind: expr.AggMin, Arg: fld("f")},
		{Kind: expr.AggAvg, Arg: fld("f")},
		{Kind: expr.AggMax, Arg: fld("s")},
	}
	groupNames := []string{"n", "sx", "mx", "mf", "af", "ms"}
	return map[string]algebra.Node{
		exec.ShapeBare: &algebra.Select{
			Pred:  &expr.BinOp{Op: expr.OpGt, L: fld("x"), R: &expr.Const{V: types.IntValue(0)}},
			Child: scan(),
		},
		exec.ShapeCollect: &algebra.Reduce{
			Aggs: []expr.Agg{{Kind: expr.AggBag, Arg: &expr.RecordCtor{
				Names: []string{"k", "s"},
				Exprs: []expr.Expr{fld("k"), fld("s")},
			}}},
			Names: []string{"result"},
			Child: scan(),
		},
		exec.ShapeAgg: &algebra.Reduce{
			Aggs: []expr.Agg{
				{Kind: expr.AggCount},
				{Kind: expr.AggSum, Arg: fld("x")},
				{Kind: expr.AggSum, Arg: fld("f")},
				{Kind: expr.AggMin, Arg: fld("x")},
				{Kind: expr.AggMax, Arg: fld("f")},
				{Kind: expr.AggMin, Arg: fld("s")},
				{Kind: expr.AggMax, Arg: fld("s")},
				{Kind: expr.AggAvg, Arg: fld("x")},
				{Kind: expr.AggList, Arg: fld("x")},
			},
			Names: []string{"n", "sx", "sf", "mnx", "mxf", "mns", "mxs", "ax", "lx"},
			Child: scan(),
		},
		exec.ShapeGroup: &algebra.Nest{
			GroupBy: []expr.Expr{fld("g")}, GroupNames: []string{"g"},
			Aggs: groupAggs, AggNames: groupNames, Child: scan(),
		},
		exec.ShapeGroupInt: &algebra.Nest{
			GroupBy: []expr.Expr{fld("k")}, GroupNames: []string{"k"},
			Aggs: groupAggs, AggNames: groupNames, Child: scan(),
		},
	}
}

// encodeFragment runs plan as one fragment over rows [start, end) of d and
// returns the NDJSON frame.
func encodeFragment(t testing.TB, e *engine.Engine, plan algebra.Node, start, end int64) []byte {
	t.Helper()
	fp, err := exec.CompileFragment(plan, &exec.Env{Catalog: e, Caches: e.Caches()}, start, end)
	if err != nil {
		t.Fatalf("compile fragment: %v", err)
	}
	p, err := fp.RunContext(context.Background())
	if err != nil {
		t.Fatalf("run fragment: %v", err)
	}
	var buf bytes.Buffer
	if err := p.EncodeStream(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestFragmentGoldenFrames pins the NDJSON of one frame per shape, so
// workers and coordinators built from different revisions keep
// interoperating. A failure here is a wire-format change.
func TestFragmentGoldenFrames(t *testing.T) {
	e, schema := gatherEngine(t)
	rows := e.Rows("d")
	for shape, plan := range gatherPlans(schema) {
		got := encodeFragment(t, e, plan, 0, rows)
		path := filepath.Join("testdata", "frames", shape+".ndjson")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update-golden)", shape, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s frame changed:\n got: %s\nwant: %s", shape, got, want)
		}
	}
}

// gatherShapes lists the wire shapes in a fixed order.
var gatherShapes = []string{exec.ShapeBare, exec.ShapeCollect, exec.ShapeAgg, exec.ShapeGroup, exec.ShapeGroupInt}

func mergeStateFor(t testing.TB, e *engine.Engine, plan algebra.Node) *exec.MergeState {
	t.Helper()
	ms, err := exec.CompileMergeState(plan, &exec.Env{Catalog: e, Caches: e.Caches()})
	if err != nil {
		t.Fatalf("compile merge state: %v", err)
	}
	return ms
}

// TestMergeRejectsUncheckedFrames: a frame that does not echo the plan
// fingerprint is refused at merge, and unit lines that do not belong to the
// head's shape are refused at decode instead of being dropped silently.
func TestMergeRejectsUncheckedFrames(t *testing.T) {
	e, schema := gatherEngine(t)
	plans := gatherPlans(schema)
	frame := encodeFragment(t, e, plans[exec.ShapeAgg], 0, e.Rows("d"))
	p, err := exec.DecodePartialStream(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	p.Fingerprint = ""
	if err := mergeStateFor(t, e, plans[exec.ShapeAgg]).Merge(p); err == nil {
		t.Error("frame without a fingerprint merged")
	}

	units := map[string]string{
		"row":   `{"row":{"k":"i","i":1}}`,
		"aggs":  `{"aggs":[{"k":"count","i":1}]}`,
		"group": `{"group":{"keys":[{"k":"i","i":1}],"aggs":[{"k":"count","i":1}]}}`,
	}
	foreign := map[string][]string{
		exec.ShapeBare:     {"aggs", "group"},
		exec.ShapeCollect:  {"aggs", "group"},
		exec.ShapeAgg:      {"row", "group"},
		exec.ShapeGroup:    {"row", "aggs"},
		exec.ShapeGroupInt: {"row", "aggs"},
	}
	for shape, kinds := range foreign {
		for _, kind := range kinds {
			stream := `{"shape":"` + shape + `","names":["x"],"fingerprint":"fp"}` + "\n" +
				units[kind] + "\n" + `{"done":true,"units":1}` + "\n"
			if _, err := exec.DecodePartialStream(bytes.NewReader([]byte(stream))); err == nil {
				t.Errorf("%s frame with a %s line decoded", shape, kind)
			}
		}
	}
}

// FuzzMergeFragment feeds arbitrary bytes through the gather path —
// DecodePartialStream, then MergeState.Merge against one plan per shape.
// A corrupted frame must fail with an error, never a panic, and a frame
// that merges must give the same Result as its re-encoded decode.
func FuzzMergeFragment(f *testing.F) {
	e, schema := gatherEngine(f)
	plans := gatherPlans(schema)
	for _, shape := range gatherShapes {
		for _, frame := range [][]byte{
			encodeFragment(f, e, plans[shape], 0, e.Rows("d")),
			encodeFragment(f, e, plans[shape], 2, 5),
		} {
			p, err := exec.DecodePartialStream(bytes.NewReader(frame))
			if err != nil || mergeStateFor(f, e, plans[shape]).Merge(p) != nil {
				f.Fatalf("%s: seed frame does not merge", shape)
			}
			f.Add(frame)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := exec.DecodePartialStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, shape := range gatherShapes {
			ms := mergeStateFor(t, e, plans[shape])
			if ms.Merge(p) != nil {
				continue
			}
			var buf bytes.Buffer
			if err := p.EncodeStream(&buf); err != nil {
				t.Fatalf("%s: re-encode: %v", shape, err)
			}
			p2, err := exec.DecodePartialStream(&buf)
			if err != nil {
				t.Fatalf("%s: re-encoded frame does not decode: %v", shape, err)
			}
			ms2 := mergeStateFor(t, e, plans[shape])
			if err := ms2.Merge(p2); err != nil {
				t.Fatalf("%s: re-encoded frame does not merge: %v", shape, err)
			}
			r1, err1 := ms.Result()
			r2, err2 := ms2.Result()
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s: result errors differ: %v vs %v", shape, err1, err2)
			}
			if err1 == nil && fmt.Sprint(r1.Cols, r1.Rows) != fmt.Sprint(r2.Cols, r2.Rows) {
				t.Fatalf("%s: merged %v, re-encoded merge %v", shape, r1.Rows, r2.Rows)
			}
		}
	})
}
