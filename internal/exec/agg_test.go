package exec

import (
	"encoding/json"
	"math"
	"testing"

	"proteus/internal/expr"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// feedArg points a compiled aggregate argument at col: the tuple evaluator
// reads row *cur, the batch kernel returns the whole column.
func feedArg[T int64 | float64 | string](a *aggArg[T], col []types.Value, cur *int, conv func(types.Value) T) {
	vals := make([]T, len(col))
	nulls := make([]bool, len(col))
	for i, v := range col {
		if v.IsNull() {
			nulls[i] = true
		} else {
			vals[i] = conv(v)
		}
	}
	a.ev = func(*vbuf.Regs) (T, bool) { return vals[*cur], !nulls[*cur] }
	a.vec = func(*vbuf.Batch) ([]T, []bool) { return vals, nulls }
}

func feed(st aggState, col []types.Value, cur *int) {
	switch s := st.(type) {
	case *scalarState[int64]:
		feedArg(s.arg, col, cur, types.Value.AsInt)
	case *scalarState[float64]:
		feedArg(s.arg, col, cur, types.Value.AsFloat)
	case *scalarState[string]:
		feedArg(s.arg, col, cur, func(v types.Value) string { return v.S })
	case *avgState:
		feedArg(s.arg, col, cur, types.Value.AsFloat)
	case *elemsState:
		s.ev = func(*vbuf.Regs) (types.Value, bool) { v := col[*cur]; return v, !v.IsNull() }
	}
}

// aggFingerprint renders a state's partial and result through the wire
// codec, so floats compare bit-exactly and NaN equals NaN.
func aggFingerprint(t *testing.T, st aggState) string {
	t.Helper()
	w, err := encodeAcc(st)
	if err != nil {
		t.Fatal(err)
	}
	r, err := encodeValue(st.result())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal([]any{w, r})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

var (
	nullV = types.NullValue()
	nan   = math.NaN()
	inf   = math.Inf(1)
)

// TestAggMonoidTable checks every (aggregate, argument kind) pair of the
// monoid table over inputs with NULLs, NaN, ±Inf and an all-NULL column:
// the tuple fold, the batch fold over b.Sel, the grouped lane fold, a
// split-halves absorb and a wire encode→decode must agree exactly. Float
// inputs are chosen so every summation order is exact, so splitting the
// fold reassociates nothing.
func TestAggMonoidTable(t *testing.T) {
	ints := func(vs ...any) []types.Value {
		out := make([]types.Value, len(vs))
		for i, v := range vs {
			if n, ok := v.(int); ok {
				out[i] = types.IntValue(int64(n))
			} else {
				out[i] = nullV
			}
		}
		return out
	}
	floats := func(vs ...any) []types.Value {
		out := make([]types.Value, len(vs))
		for i, v := range vs {
			if f, ok := v.(float64); ok {
				out[i] = types.FloatValue(f)
			} else {
				out[i] = nullV
			}
		}
		return out
	}
	strs := func(vs ...any) []types.Value {
		out := make([]types.Value, len(vs))
		for i, v := range vs {
			if s, ok := v.(string); ok {
				out[i] = types.StringValue(s)
			} else {
				out[i] = nullV
			}
		}
		return out
	}
	inputs := []struct {
		name   string
		kind   types.Kind
		arg    types.Value // constant of the argument type, for compilation
		col    []types.Value
		poison types.Value // an unselected lane that must never be folded
	}{
		{"int", types.KindInt, types.IntValue(0), ints(3, nil, -7, 42, nil, 0), types.IntValue(1 << 40)},
		{"int-all-null", types.KindInt, types.IntValue(0), ints(nil, nil, nil), types.IntValue(5)},
		{"float", types.KindFloat, types.FloatValue(0), floats(1.5, nil, -2.25, 0.0, math.Copysign(0, -1), 8.0), types.FloatValue(1e9)},
		{"float-nan", types.KindFloat, types.FloatValue(0), floats(1.5, nan, nil, -4.0), types.FloatValue(-1e9)},
		{"float-both-inf", types.KindFloat, types.FloatValue(0), floats(nil, inf, 2.5, -inf, 0.5), types.FloatValue(7)},
		{"float-pos-inf", types.KindFloat, types.FloatValue(0), floats(-1.0, inf, nil, 3.0), types.FloatValue(7)},
		{"float-all-null", types.KindFloat, types.FloatValue(0), floats(nil, nil), types.FloatValue(7)},
		{"string", types.KindString, types.StringValue(""), strs("m", nil, "", "zz", "a", nil), types.StringValue("zzz")},
		{"string-all-null", types.KindString, types.StringValue(""), strs(nil, nil, nil), types.StringValue("q")},
	}
	kinds := []expr.AggKind{expr.AggCount, expr.AggSum, expr.AggMin, expr.AggMax, expr.AggAvg, expr.AggBag, expr.AggList}

	for _, in := range inputs {
		for _, kind := range kinds {
			name := in.name + "/" + kind.String()
			m, ok := monoidOf(kind, in.kind)
			agg := []expr.Agg{{Kind: kind, Arg: &expr.Const{V: in.arg}}}
			c := &Compiler{}
			if in.kind == types.KindString && (kind == expr.AggSum || kind == expr.AggAvg) {
				// SUM is undefined over strings; AVG of a non-numeric
				// argument has no batch fold.
				if m.batch || (kind == expr.AggSum && ok) {
					t.Errorf("%s: in the table as %+v", name, m)
				}
				continue
			}
			if !ok {
				t.Fatalf("%s: missing from the monoid table", name)
			}
			cur := 0
			n := len(in.col)
			tupleProto, err := c.compileAggStates(agg, false)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			feed(tupleProto[0], in.col, &cur)
			foldRange := func(lo, hi int) aggState {
				st := tupleProto[0].fresh()
				for cur = lo; cur < hi; cur++ {
					st.fold(nil)
				}
				return st
			}

			tuple := foldRange(0, n)
			want := aggFingerprint(t, tuple)

			halves := foldRange(0, n/2)
			halves.absorb(foldRange(n/2, n).partial())
			if got := aggFingerprint(t, halves); got != want {
				t.Errorf("%s: split-halves absorb %s, tuple fold %s", name, got, want)
			}

			w, err := encodeAcc(tuple)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(w)
			if err != nil {
				t.Fatal(err)
			}
			var back WireAgg
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			decoded := tupleProto[0].fresh()
			if err := decodeAccInto(decoded, back); err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if got := aggFingerprint(t, decoded); got != want {
				t.Errorf("%s: wire round trip %s, tuple fold %s", name, got, want)
			}

			if !m.batch {
				continue
			}
			batchProto, err := c.compileAggStates(agg, true)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			padded := append(append([]types.Value{}, in.col...), in.poison)
			feed(batchProto[0], padded, &cur)
			b := &vbuf.Batch{N: len(padded)}
			for j := range n {
				b.Sel = append(b.Sel, int32(j))
			}

			batch := batchProto[0].fresh()
			batch.foldBatch(b)
			if got := aggFingerprint(t, batch); got != want {
				t.Errorf("%s: batch fold %s, tuple fold %s", name, got, want)
			}

			lanes := batchProto[0].fresh()
			batchProto[0].bind(b)
			for _, j := range b.Sel {
				lanes.foldLane(j)
			}
			if got := aggFingerprint(t, lanes); got != want {
				t.Errorf("%s: lane fold %s, tuple fold %s", name, got, want)
			}
		}
	}
}

// TestAggMonoidSemantics pins the values behind the equivalences above:
// NULLs are skipped, an all-NULL input yields NULL (COUNT counts rows), and
// NaN propagates through float SUM/MIN/MAX/AVG.
func TestAggMonoidSemantics(t *testing.T) {
	run := func(kind expr.AggKind, arg types.Value, col []types.Value) types.Value {
		c := &Compiler{}
		protos, err := c.compileAggStates([]expr.Agg{{Kind: kind, Arg: &expr.Const{V: arg}}}, false)
		if err != nil {
			t.Fatal(err)
		}
		cur := 0
		feed(protos[0], col, &cur)
		st := protos[0].fresh()
		for cur = range col {
			st.fold(nil)
		}
		return st.result()
	}
	i0, f0 := types.IntValue(0), types.FloatValue(0)
	allNull := []types.Value{nullV, nullV}
	for _, kind := range []expr.AggKind{expr.AggSum, expr.AggMin, expr.AggMax, expr.AggAvg} {
		if v := run(kind, i0, allNull); !v.IsNull() {
			t.Errorf("%s over all-NULL ints = %s, want NULL", kind, v)
		}
		if v := run(kind, f0, allNull); !v.IsNull() {
			t.Errorf("%s over all-NULL floats = %s, want NULL", kind, v)
		}
		withNaN := []types.Value{types.FloatValue(1), types.FloatValue(nan), nullV}
		if v := run(kind, f0, withNaN); !math.IsNaN(v.F) {
			t.Errorf("%s with NaN = %s, want NaN", kind, v)
		}
	}
	if v := run(expr.AggCount, i0, allNull); v.AsInt() != 2 {
		t.Errorf("COUNT over all-NULL = %s, want 2", v)
	}
	col := []types.Value{types.IntValue(4), nullV, types.IntValue(-2)}
	if v := run(expr.AggSum, i0, col); v.AsInt() != 2 {
		t.Errorf("SUM = %s, want 2", v)
	}
	if v := run(expr.AggAvg, i0, col); v.F != 1 {
		t.Errorf("AVG = %s, want 1", v)
	}
	if v := run(expr.AggMax, f0, []types.Value{types.FloatValue(math.Inf(-1)), types.FloatValue(-3)}); v.F != -3 {
		t.Errorf("MAX = %s, want -3", v)
	}
}
