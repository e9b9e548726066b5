// Fragment execution and the partial-state wire protocol: the exec-layer
// half of distributed scatter/gather (internal/cluster).
//
// A fragment is one morsel of a plan's driving scan executed to its
// pipeline breaker on a remote worker: scan → filter → partial aggregate,
// exactly one worker clone of CompileParallel, except the "worker" is
// another process. The worker serializes its thread-local partialState as
// an NDJSON frame; the coordinator decodes each frame and folds it into a
// MergeState in morsel order through the same merge methods parallel.go
// uses — so the distributed result is byte-identical to the single-node
// one (float SUM/AVG reassociation aside, as for in-process parallelism).
//
// The wire vocabulary is barePartial, reducePartial and nestPartial, with
// one aggregate-state vocabulary (agg.go) whichever execution model folded
// them. Fragments still compile tuple-at-a-time (Vectorize forced to
// VecOff) because the vectorized bag/list yield, vecCollectPartial, has no
// wire encoding; both sides compile the same plan with the same forcing, so
// their states always pair up (including nestPartial's single-int-key
// choice, which changes result ordering). Floats travel as strconv 'g'/-1
// strings so NaN and ±Inf survive encoding/json and round-trip bit-exactly.
package exec

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"proteus/internal/algebra"
	"proteus/internal/cache"
	"proteus/internal/expr"
	"proteus/internal/plugin"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// DrivingScan returns the plan's leftmost leaf scan — the pipeline's source
// operator, whose morsel ranges partition the work — or nil when the plan
// has no scan to drive it.
func DrivingScan(n algebra.Node) *algebra.Scan { return drivingScan(n) }

// Partial shapes: which partialState variant a fragment frame carries.
const (
	ShapeBare     = "bare"      // barePartial: plain rows
	ShapeCollect  = "collect"   // reducePartial, bag/list yield: plain rows
	ShapeAgg      = "agg"       // reducePartial: one aggregate-state set
	ShapeGroup    = "group"     // nestPartial, general keys
	ShapeGroupInt = "group_int" // nestPartial, single-int fast path
)

// WireValue is the typed wire encoding of one types.Value. Kinds: "n" null,
// "b" bool (I 0/1), "i" int, "f" float (F, strconv 'g'/-1 so NaN/±Inf and
// every bit pattern round-trip), "s" string, "r" record (Names + Vals),
// "l" list and "g" bag (Vals).
type WireValue struct {
	K     string      `json:"k"`
	I     int64       `json:"i,omitempty"`
	F     string      `json:"f,omitempty"`
	S     string      `json:"s,omitempty"`
	Names []string    `json:"names,omitempty"`
	Vals  []WireValue `json:"vals,omitempty"`
}

// WireAgg is the wire encoding of one aggregate state's partial, tagged
// by the monoid's internal representation.
type WireAgg struct {
	Kind  string      `json:"k"`               // count|int|float|str|avg|elems
	Seen  bool        `json:"seen,omitempty"`  // scalar min/max/sum: any input folded
	I     int64       `json:"i,omitempty"`     // count n; int scalar value
	F     string      `json:"f,omitempty"`     // float scalar / avg sum
	S     string      `json:"s,omitempty"`     // string scalar value
	N     int64       `json:"n,omitempty"`     // avg count
	Elems []WireValue `json:"elems,omitempty"` // bag/list elements
}

// WireGroup is one group of a grouped fragment frame: its key values (one
// per GROUP BY key; the single-int shape carries exactly one, "n"-kind for
// the NULL-key group) and its aggregate partials.
type WireGroup struct {
	Keys []WireValue `json:"keys"`
	Aggs []WireAgg   `json:"aggs"`
}

// Partial is one fragment's decoded partial-state frame.
type Partial struct {
	Shape       string
	Names       []string
	Fingerprint string
	Rows        []WireValue // bare, collect
	Aggs        []WireAgg   // agg (exactly one set)
	hasAggs     bool
	Groups      []WireGroup // group, group_int
}

// Units is the number of NDJSON unit lines the frame encodes to.
func (p *Partial) Units() int {
	n := len(p.Rows) + len(p.Groups)
	if p.hasAggs {
		n++
	}
	return n
}

// value codec ---------------------------------------------------------------

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func encodeValue(v types.Value) (WireValue, error) {
	switch v.Kind {
	case types.KindNull:
		return WireValue{K: "n"}, nil
	case types.KindBool:
		w := WireValue{K: "b"}
		if v.Bool() {
			w.I = 1
		}
		return w, nil
	case types.KindInt:
		return WireValue{K: "i", I: v.I}, nil
	case types.KindFloat:
		return WireValue{K: "f", F: formatFloat(v.F)}, nil
	case types.KindString:
		return WireValue{K: "s", S: v.S}, nil
	case types.KindRecord:
		w := WireValue{K: "r"}
		if v.Rec != nil {
			w.Names = v.Rec.Names
			vals, err := encodeValues(v.Rec.Values)
			if err != nil {
				return WireValue{}, err
			}
			w.Vals = vals
		}
		return w, nil
	case types.KindList, types.KindBag:
		k := "l"
		if v.Kind == types.KindBag {
			k = "g"
		}
		vals, err := encodeValues(v.Elems)
		if err != nil {
			return WireValue{}, err
		}
		return WireValue{K: k, Vals: vals}, nil
	}
	return WireValue{}, fmt.Errorf("exec: value kind %d is not wire-encodable", v.Kind)
}

func encodeValues(vs []types.Value) ([]WireValue, error) {
	if vs == nil {
		return nil, nil
	}
	out := make([]WireValue, len(vs))
	for i, v := range vs {
		w, err := encodeValue(v)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

func decodeValue(w WireValue) (types.Value, error) {
	switch w.K {
	case "n":
		return types.NullValue(), nil
	case "b":
		return types.BoolValue(w.I != 0), nil
	case "i":
		return types.IntValue(w.I), nil
	case "f":
		f, err := strconv.ParseFloat(w.F, 64)
		if err != nil {
			return types.Value{}, fmt.Errorf("exec: bad wire float %q: %w", w.F, err)
		}
		return types.FloatValue(f), nil
	case "s":
		return types.StringValue(w.S), nil
	case "r":
		if len(w.Names) != len(w.Vals) {
			return types.Value{}, fmt.Errorf("exec: wire record has %d names, %d values", len(w.Names), len(w.Vals))
		}
		vals, err := decodeValues(w.Vals)
		if err != nil {
			return types.Value{}, err
		}
		if vals == nil {
			vals = []types.Value{}
		}
		return types.RecordValue(w.Names, vals), nil
	case "l", "g":
		vals, err := decodeValues(w.Vals)
		if err != nil {
			return types.Value{}, err
		}
		kind := types.KindList
		if w.K == "g" {
			kind = types.KindBag
		}
		return types.Value{Kind: kind, Elems: vals}, nil
	}
	return types.Value{}, fmt.Errorf("exec: unknown wire value kind %q", w.K)
}

func decodeValues(ws []WireValue) ([]types.Value, error) {
	if ws == nil {
		return nil, nil
	}
	out := make([]types.Value, len(ws))
	for i, w := range ws {
		v, err := decodeValue(w)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// aggregate-state codec -----------------------------------------------------

func encodeAcc(acc aggState) (WireAgg, error) {
	switch p := acc.partial().(type) {
	case int64:
		return WireAgg{Kind: "count", I: p}, nil
	case scalarPart[int64]:
		return WireAgg{Kind: "int", I: p.v, Seen: p.seen}, nil
	case scalarPart[float64]:
		return WireAgg{Kind: "float", F: formatFloat(p.v), Seen: p.seen}, nil
	case scalarPart[string]:
		return WireAgg{Kind: "str", S: p.v, Seen: p.seen}, nil
	case avgPart:
		return WireAgg{Kind: "avg", F: formatFloat(p.sum), N: p.n}, nil
	case []types.Value:
		elems, err := encodeValues(p)
		if err != nil {
			return WireAgg{}, err
		}
		return WireAgg{Kind: "elems", Elems: elems}, nil
	default:
		return WireAgg{}, fmt.Errorf("exec: aggregate state %T is not wire-encodable", p)
	}
}

func encodeAccs(accs []aggState) ([]WireAgg, error) {
	out := make([]WireAgg, len(accs))
	for i, acc := range accs {
		w, err := encodeAcc(acc)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// wireKindOf maps an aggregate state's partial representation to its wire
// tag, so decode can reject a frame whose aggregate shapes do not match the
// coordinator's plan before the (type-asserting) absorb runs.
func wireKindOf(p any) string {
	switch p.(type) {
	case int64:
		return "count"
	case scalarPart[int64]:
		return "int"
	case scalarPart[float64]:
		return "float"
	case scalarPart[string]:
		return "str"
	case avgPart:
		return "avg"
	case []types.Value:
		return "elems"
	}
	return ""
}

// decodeAccInto folds one wire aggregate into a fresh aggregate state.
func decodeAccInto(acc aggState, w WireAgg) error {
	if want := wireKindOf(acc.partial()); want != w.Kind {
		return fmt.Errorf("exec: fragment aggregate kind %q does not match plan (want %q)", w.Kind, want)
	}
	switch w.Kind {
	case "count":
		acc.absorb(w.I)
	case "int":
		acc.absorb(scalarPart[int64]{v: w.I, seen: w.Seen})
	case "float":
		f, err := strconv.ParseFloat(w.F, 64)
		if err != nil {
			return fmt.Errorf("exec: bad wire float %q: %w", w.F, err)
		}
		acc.absorb(scalarPart[float64]{v: f, seen: w.Seen})
	case "str":
		acc.absorb(scalarPart[string]{v: w.S, seen: w.Seen})
	case "avg":
		sum, err := strconv.ParseFloat(w.F, 64)
		if err != nil {
			return fmt.Errorf("exec: bad wire float %q: %w", w.F, err)
		}
		acc.absorb(avgPart{sum: sum, n: w.N})
	case "elems":
		elems, err := decodeValues(w.Elems)
		if err != nil {
			return err
		}
		acc.absorb(elems)
	default:
		return fmt.Errorf("exec: unknown wire aggregate kind %q", w.Kind)
	}
	return nil
}

// decodeAccs materializes one group's aggregate states from their wire
// partials, starting from fresh copies of the merge state's prototypes.
func decodeAccs(protos []aggState, ws []WireAgg) ([]aggState, error) {
	if len(ws) != len(protos) {
		return nil, fmt.Errorf("exec: fragment carries %d aggregates, plan has %d", len(ws), len(protos))
	}
	accs := freshStates(protos)
	for i, w := range ws {
		if err := decodeAccInto(accs[i], w); err != nil {
			return nil, err
		}
	}
	return accs, nil
}

// state encode --------------------------------------------------------------

// encodePartial serializes a fragment run's final partialState. Only the
// three encodable states exist here: fragments compile with VecOff.
func encodePartial(st partialState, fp string) (*Partial, error) {
	switch s := st.(type) {
	case *barePartial:
		rows, err := encodeValues(s.rows)
		if err != nil {
			return nil, err
		}
		return &Partial{Shape: ShapeBare, Names: s.names, Fingerprint: fp, Rows: rows}, nil
	case *reducePartial:
		if s.collect {
			rows, err := encodeValues(s.rows)
			if err != nil {
				return nil, err
			}
			return &Partial{Shape: ShapeCollect, Names: s.names, Fingerprint: fp, Rows: rows}, nil
		}
		aggs, err := encodeAccs(s.accs)
		if err != nil {
			return nil, err
		}
		return &Partial{Shape: ShapeAgg, Names: s.names, Fingerprint: fp, Aggs: aggs, hasAggs: true}, nil
	case *nestPartial:
		p := &Partial{Names: s.outNames, Fingerprint: fp}
		if s.singleInt {
			p.Shape = ShapeGroupInt
			if s.intNull != nil {
				aggs, err := encodeAccs(s.intNull)
				if err != nil {
					return nil, err
				}
				p.Groups = append(p.Groups, WireGroup{Keys: []WireValue{{K: "n"}}, Aggs: aggs})
			}
			for _, k := range s.intOrder {
				aggs, err := encodeAccs(s.intGroups[k])
				if err != nil {
					return nil, err
				}
				p.Groups = append(p.Groups, WireGroup{Keys: []WireValue{{K: "i", I: k}}, Aggs: aggs})
			}
			return p, nil
		}
		p.Shape = ShapeGroup
		for _, g := range s.order {
			keys, err := encodeValues(g.keyVals)
			if err != nil {
				return nil, err
			}
			aggs, err := encodeAccs(g.accs)
			if err != nil {
				return nil, err
			}
			p.Groups = append(p.Groups, WireGroup{Keys: keys, Aggs: aggs})
		}
		return p, nil
	}
	return nil, fmt.Errorf("exec: fragment state %T is not serializable", st)
}

// shapeOf names the wire shape a compiled partialState will produce.
func shapeOf(st partialState) string {
	switch s := st.(type) {
	case *barePartial:
		return ShapeBare
	case *reducePartial:
		if s.collect {
			return ShapeCollect
		}
		return ShapeAgg
	case *nestPartial:
		if s.singleInt {
			return ShapeGroupInt
		}
		return ShapeGroup
	}
	return ""
}

func stateNames(st partialState) []string {
	switch s := st.(type) {
	case *barePartial:
		return s.names
	case *reducePartial:
		return s.names
	case *nestPartial:
		return s.outNames
	}
	return nil
}

// NDJSON stream -------------------------------------------------------------

// fragmentLine is every line of a fragment-response stream: the head line
// carries Shape (never empty), unit lines carry exactly one of Row / Aggs /
// Group, and the trailer carries Done (with the expected unit count) or an
// in-band Error. A stream that ends without a trailer was truncated.
type fragmentLine struct {
	Shape       string   `json:"shape,omitempty"`
	Names       []string `json:"names,omitempty"`
	Fingerprint string   `json:"fingerprint,omitempty"`

	Row   *WireValue `json:"row,omitempty"`
	Aggs  *[]WireAgg `json:"aggs,omitempty"` // pointer so an empty set still serializes
	Group *WireGroup `json:"group,omitempty"`

	Done  bool   `json:"done,omitempty"`
	Units int    `json:"units,omitempty"`
	Error string `json:"error,omitempty"`
}

// EncodeStream writes the frame as NDJSON: one head line, one line per
// unit (row, group, or the single aggregate set), one trailer line.
func (p *Partial) EncodeStream(w io.Writer) error {
	write := func(line fragmentLine) error {
		data, err := json.Marshal(line)
		if err != nil {
			return err
		}
		_, err = w.Write(append(data, '\n'))
		return err
	}
	names := p.Names
	if names == nil {
		names = []string{}
	}
	if err := write(fragmentLine{Shape: p.Shape, Names: names, Fingerprint: p.Fingerprint}); err != nil {
		return err
	}
	for i := range p.Rows {
		if err := write(fragmentLine{Row: &p.Rows[i]}); err != nil {
			return err
		}
	}
	if p.hasAggs {
		aggs := p.Aggs
		if aggs == nil {
			aggs = []WireAgg{}
		}
		if err := write(fragmentLine{Aggs: &aggs}); err != nil {
			return err
		}
	}
	for i := range p.Groups {
		if err := write(fragmentLine{Group: &p.Groups[i]}); err != nil {
			return err
		}
	}
	return write(fragmentLine{Done: true, Units: p.Units()})
}

// DecodePartialStream parses one fragment-response frame. Truncated streams
// (no trailer), unit-count mismatches, units foreign to the head's shape,
// in-band errors, and malformed lines all fail loudly — the coordinator
// treats every such failure as a failed attempt, never as data.
func DecodePartialStream(r io.Reader) (*Partial, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	readLine := func() ([]byte, error) {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && err == io.EOF {
			err = nil // a final unterminated line is still a line
		}
		return line, err
	}
	head, err := readLine()
	if err != nil {
		return nil, fmt.Errorf("exec: fragment stream has no head line: %w", err)
	}
	var hl fragmentLine
	if err := json.Unmarshal(head, &hl); err != nil {
		return nil, fmt.Errorf("exec: malformed fragment head: %w", err)
	}
	if hl.Error != "" {
		return nil, fmt.Errorf("exec: fragment failed: %s", hl.Error)
	}
	switch hl.Shape {
	case ShapeBare, ShapeCollect, ShapeAgg, ShapeGroup, ShapeGroupInt:
	default:
		return nil, fmt.Errorf("exec: fragment head has unknown shape %q", hl.Shape)
	}
	p := &Partial{Shape: hl.Shape, Names: hl.Names, Fingerprint: hl.Fingerprint}
	units := 0
	for {
		raw, err := readLine()
		if err != nil {
			return nil, fmt.Errorf("exec: fragment stream truncated after %d units: %w", units, err)
		}
		var ln fragmentLine
		if err := json.Unmarshal(raw, &ln); err != nil {
			return nil, fmt.Errorf("exec: malformed fragment line: %w", err)
		}
		switch {
		case ln.Error != "":
			return nil, fmt.Errorf("exec: fragment failed mid-stream: %s", ln.Error)
		case ln.Done:
			if ln.Units != units {
				return nil, fmt.Errorf("exec: fragment trailer expects %d units, stream carried %d", ln.Units, units)
			}
			return p, nil
		case ln.Row != nil:
			if p.Shape != ShapeBare && p.Shape != ShapeCollect {
				return nil, fmt.Errorf("exec: %s fragment carries a row line", p.Shape)
			}
			p.Rows = append(p.Rows, *ln.Row)
		case ln.Group != nil:
			if p.Shape != ShapeGroup && p.Shape != ShapeGroupInt {
				return nil, fmt.Errorf("exec: %s fragment carries a group line", p.Shape)
			}
			p.Groups = append(p.Groups, *ln.Group)
		case ln.Aggs != nil:
			if p.Shape != ShapeAgg {
				return nil, fmt.Errorf("exec: %s fragment carries an aggregate line", p.Shape)
			}
			if p.hasAggs {
				return nil, fmt.Errorf("exec: fragment stream carries more than one aggregate set")
			}
			p.Aggs = *ln.Aggs
			p.hasAggs = true
		default:
			return nil, fmt.Errorf("exec: fragment line carries no unit")
		}
		units++
	}
}

// fragment compilation ------------------------------------------------------

// FragmentProgram is one compiled fragment: a single morsel-restricted
// pipeline clone whose run ends at the pipeline breaker and serializes the
// thread-local partial state instead of materializing rows.
type FragmentProgram struct {
	alloc     vbuf.Alloc
	run       func(r *vbuf.Regs) error
	state     partialState
	cancel    *plugin.Cancel
	mem       *memGauge
	sh        *sharedRun
	caches    *cache.Manager
	totalRows int64

	// Fingerprint is the compiled plan's structural fingerprint; the
	// coordinator cross-checks it so a worker whose catalog or statistics
	// diverged never contributes a mismatched partial.
	Fingerprint string
	// Start and End are the fragment's record-ordinal morsel range.
	Start, End int64
}

// CompileFragment compiles one morsel of plan's driving scan, [start, end)
// in record ordinals, into a fragment program. Compilation forces VecOff —
// see the package comment — and ignores Env.Sort (ORDER BY / LIMIT belong
// to the coordinator, after the gather merge).
func CompileFragment(plan algebra.Node, env *Env, start, end int64) (*FragmentProgram, error) {
	drive := drivingScan(plan)
	if drive == nil {
		return nil, fmt.Errorf("exec: plan has no driving scan to fragment")
	}
	ds, in, err := env.Catalog.Dataset(drive.Dataset)
	if err != nil {
		return nil, err
	}
	rows := in.Cardinality(ds)
	if start < 0 || end < start || end > rows {
		return nil, fmt.Errorf("exec: fragment range [%d,%d) outside dataset %s (%d rows)",
			start, end, drive.Dataset, rows)
	}
	envCopy := *env
	envCopy.Vectorize = VecOff
	envCopy.Sort = nil
	envCopy.Profile = nil
	morsel := plugin.Morsel{Start: start, End: end}
	sh := newSharedRun(1)
	cancel := &plugin.Cancel{}
	var gauge *memGauge
	if env.MemBudget > 0 {
		gauge = &memGauge{budget: env.MemBudget}
	}
	c := &Compiler{
		env:       &envCopy,
		bindings:  map[string]*binding{},
		envTypes:  expr.Env{},
		driveScan: drive,
		morsel:    &morsel,
		shared:    sh,
		workerID:  0,
		cancel:    cancel,
		mem:       gauge,
	}
	algebra.Walk(plan, func(n algebra.Node) bool {
		for name, t := range n.Bindings() {
			if _, exists := c.envTypes[name]; !exists {
				c.envTypes[name] = t
			}
		}
		return true
	})
	c.analyze(plan)

	var run func(r *vbuf.Regs) error
	var st partialState
	switch root := plan.(type) {
	case *algebra.Reduce:
		run, st, err = c.compileReducePartial(root)
	case *algebra.Nest:
		run, st, err = c.compileNestPartial(root)
	default:
		run, st, err = c.compileBarePartial(plan)
	}
	if err != nil {
		return nil, err
	}
	return &FragmentProgram{
		alloc: c.alloc, run: run, state: st, cancel: cancel, mem: gauge,
		sh: sh, caches: envCopy.Caches, totalRows: rows,
		Fingerprint: plan.Fingerprint(), Start: start, End: end,
	}, nil
}

// RunContext executes the fragment under ctx — the same cancellation,
// memory-budget, and panic-barrier contract as Program.RunContext — and
// returns its serialized partial state. A fragment whose morsel happens to
// cover the whole dataset still registers complete cache blocks; partial
// morsels never do (finishCaches requires the fragments to tile the
// dataset, and a single partial fragment cannot).
func (f *FragmentProgram) RunContext(ctx context.Context) (p *Partial, err error) {
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	if f.mem != nil {
		f.mem.reset()
	}
	gen := f.cancel.Arm()
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			f.cancel.SignalAt(gen, context.Cause(ctx))
		})
		defer stop()
	}
	defer func() {
		if rec := recover(); rec != nil {
			p, err = nil, newPanicError(f.Fingerprint, rec)
		}
	}()
	f.sh.reset()
	f.state.reset()
	regs := vbuf.NewRegs(&f.alloc)
	if err := f.run(regs); err != nil {
		return nil, err
	}
	if f.caches != nil {
		f.sh.finishCaches(f.caches, f.totalRows)
	}
	return encodePartial(f.state, f.Fingerprint)
}

// merge state ---------------------------------------------------------------

// MergeState is the coordinator-side gather half: the stable merge API over
// the partial states parallel.go merges in-process. Compile one per
// distributed query, feed it every fragment's Partial in morsel order, then
// materialize. MergeState is not safe for concurrent Merge calls.
type MergeState struct {
	st      partialState
	shape   string
	names   []string
	fp      string
	numKeys int // general-group shape: GROUP BY arity, checked per wire group
	merged  int
}

// CompileMergeState compiles plan just far enough to own a mergeable root
// state of the exact concrete type fragments of this plan serialize —
// the same VecOff forcing on both sides keeps the shapes (including the
// single-int group fast path, which sorts keys at materialization) in
// lock-step. The compiled scan closures are discarded; only the state and
// its aggregate-state prototypes are kept.
func CompileMergeState(plan algebra.Node, env *Env) (*MergeState, error) {
	envCopy := *env
	envCopy.Vectorize = VecOff
	envCopy.Sort = nil
	envCopy.Profile = nil
	envCopy.Metrics = nil
	c := &Compiler{
		env:      &envCopy,
		bindings: map[string]*binding{},
		envTypes: expr.Env{},
		cancel:   &plugin.Cancel{},
	}
	if envCopy.MemBudget > 0 {
		c.mem = &memGauge{budget: envCopy.MemBudget}
	}
	algebra.Walk(plan, func(n algebra.Node) bool {
		for name, t := range n.Bindings() {
			if _, exists := c.envTypes[name]; !exists {
				c.envTypes[name] = t
			}
		}
		return true
	})
	c.analyze(plan)

	var st partialState
	var err error
	switch root := plan.(type) {
	case *algebra.Reduce:
		_, st, err = c.compileReducePartial(root)
	case *algebra.Nest:
		_, st, err = c.compileNestPartial(root)
	default:
		_, st, err = c.compileBarePartial(plan)
	}
	if err != nil {
		return nil, err
	}
	st.reset()
	m := &MergeState{st: st, shape: shapeOf(st), names: stateNames(st), fp: plan.Fingerprint()}
	if nest, ok := plan.(*algebra.Nest); ok {
		m.numKeys = len(nest.GroupBy)
	}
	return m, nil
}

// Shape returns the wire shape fragments of this plan must carry.
func (m *MergeState) Shape() string { return m.shape }

// Fingerprint returns the plan fingerprint fragments must echo.
func (m *MergeState) Fingerprint() string { return m.fp }

// Merged returns how many fragment frames have been folded in.
func (m *MergeState) Merged() int { return m.merged }

// validate cross-checks one frame against the compiled plan before any of
// it is decoded into aggregate states.
func (m *MergeState) validate(p *Partial) error {
	if p.Fingerprint != m.fp {
		return fmt.Errorf("exec: fragment plan fingerprint %s does not match coordinator plan %s", p.Fingerprint, m.fp)
	}
	if p.Shape != m.shape {
		return fmt.Errorf("exec: fragment shape %q does not match plan shape %q", p.Shape, m.shape)
	}
	if len(p.Names) != len(m.names) {
		return fmt.Errorf("exec: fragment columns %v do not match plan columns %v", p.Names, m.names)
	}
	for i, n := range p.Names {
		if n != m.names[i] {
			return fmt.Errorf("exec: fragment columns %v do not match plan columns %v", p.Names, m.names)
		}
	}
	return nil
}

// Merge decodes one fragment frame and folds it into the state through the
// same partialState.merge the in-process parallel path uses. Frames MUST
// arrive in morsel order for bag/collect shapes and group first-encounter
// order (the caller gathers concurrently but merges sequentially).
func (m *MergeState) Merge(p *Partial) error {
	if err := m.validate(p); err != nil {
		return err
	}
	other, err := m.decode(p)
	if err != nil {
		return err
	}
	if err := m.st.merge(other); err != nil {
		return err
	}
	m.merged++
	return nil
}

// decode materializes a frame as a partialState of the same concrete type
// as the compiled root state.
func (m *MergeState) decode(p *Partial) (partialState, error) {
	switch st := m.st.(type) {
	case *barePartial:
		rows, err := decodeValues(p.Rows)
		if err != nil {
			return nil, err
		}
		return &barePartial{names: st.names, rows: rows}, nil
	case *reducePartial:
		if st.collect {
			rows, err := decodeValues(p.Rows)
			if err != nil {
				return nil, err
			}
			return &reducePartial{collect: true, names: st.names, rows: rows}, nil
		}
		if !p.hasAggs {
			return nil, fmt.Errorf("exec: aggregate fragment carries no aggregate set")
		}
		accs, err := decodeAccs(st.accs, p.Aggs)
		if err != nil {
			return nil, err
		}
		return &reducePartial{names: st.names, accs: accs}, nil
	case *nestPartial:
		return m.decodeNest(st, p)
	}
	return nil, fmt.Errorf("exec: merge state %T cannot decode fragments", m.st)
}

func (m *MergeState) decodeNest(st *nestPartial, p *Partial) (partialState, error) {
	other := &nestPartial{outNames: st.outNames, protos: st.protos, singleInt: st.singleInt}
	other.reset()
	if st.singleInt {
		for _, g := range p.Groups {
			if len(g.Keys) != 1 {
				return nil, fmt.Errorf("exec: single-int fragment group carries %d keys", len(g.Keys))
			}
			accs, err := decodeAccs(st.protos, g.Aggs)
			if err != nil {
				return nil, err
			}
			switch g.Keys[0].K {
			case "n":
				if other.intNull != nil {
					return nil, fmt.Errorf("exec: fragment carries duplicate NULL group")
				}
				other.intNull = accs
			case "i":
				k := g.Keys[0].I
				if _, dup := other.intGroups[k]; dup {
					return nil, fmt.Errorf("exec: fragment carries duplicate group key %d", k)
				}
				other.intGroups[k] = accs
				other.intOrder = append(other.intOrder, k)
			default:
				return nil, fmt.Errorf("exec: single-int fragment group key has kind %q", g.Keys[0].K)
			}
		}
		return other, nil
	}
	for _, wg := range p.Groups {
		if len(wg.Keys) != m.numKeys {
			return nil, fmt.Errorf("exec: fragment group carries %d keys, plan groups by %d", len(wg.Keys), m.numKeys)
		}
		keyVals, err := decodeValues(wg.Keys)
		if err != nil {
			return nil, err
		}
		accs, err := decodeAccs(st.protos, wg.Aggs)
		if err != nil {
			return nil, err
		}
		// Recompute the group hash exactly as the fold path does so merge's
		// hash-bucketed key lookup finds cross-fragment matches.
		h := uint64(14695981039346656037)
		for _, v := range keyVals {
			h = hashMix(h, v.Hash())
		}
		if other.lookup(h, keyVals) != nil {
			return nil, fmt.Errorf("exec: fragment carries duplicate group")
		}
		other.adopt(&group{hash: h, keyVals: keyVals, accs: accs})
	}
	return other, nil
}

// Result materializes the merged rows — identical to what the single-node
// program would have produced over the union of the fragments' morsels.
func (m *MergeState) Result() (*Result, error) { return m.st.result() }
