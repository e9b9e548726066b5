package exec

import (
	"cmp"
	"fmt"
	"math"
	"sort"

	"proteus/internal/algebra"
	"proteus/internal/expr"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// aggState is one aggregate monoid's state, shared by both execution
// models. fold consumes the current tuple; foldBatch consumes every selected
// lane of an ungrouped batch (the b.Sel loop runs inside one call); foldLane
// consumes one lane of a grouped batch, reading the argument column that
// bind loaded once per batch into the aggregate's shared holder. partial
// snapshots the state and absorb folds another state's partial in (the
// monoid ⊕), so parallel and distributed merges equal the serial fold.
type aggState interface {
	fold(r *vbuf.Regs)
	foldBatch(b *vbuf.Batch)
	bind(b *vbuf.Batch)
	foldLane(j int32)
	result() types.Value
	partial() any
	absorb(p any)
	// fresh returns a zeroed state sharing this one's compiled argument
	// (one state per group).
	fresh() aggState
}

// scalarPart is the partial state of min/max/sum over one scalar type.
type scalarPart[T int64 | float64 | string] struct {
	v    T
	seen bool
}

// avgPart is the partial state of AVG: merging needs sum and count, not the
// quotient.
type avgPart struct {
	sum float64
	n   int64
}

// aggMonoid is one entry of the aggregate table: build compiles the
// argument for tuples or for batches (vec) into a fresh state; batch says
// whether the state has batch and lane folds at all.
type aggMonoid struct {
	build func(c *Compiler, arg expr.Expr, vec bool) (aggState, error)
	batch bool
}

// monoidOf is the (AggKind, argument kind) table — the one place an
// aggregate is paired with its state and combine function. Both execution
// models compile from it and canVecAgg asks it which pairs fold batches.
// COUNT ignores its argument and AVG promotes its argument to float. Float
// min/max use math.Max/math.Min so NaN and signed zeros behave the same
// everywhere.
func monoidOf(kind expr.AggKind, arg types.Kind) (aggMonoid, bool) {
	switch kind {
	case expr.AggCount:
		return aggMonoid{batch: true, build: func(*Compiler, expr.Expr, bool) (aggState, error) {
			return &countState{}, nil
		}}, true
	case expr.AggBag, expr.AggList:
		return aggMonoid{build: elemsMonoid(kind)}, true
	case expr.AggAvg:
		return aggMonoid{batch: arg == types.KindInt || arg == types.KindFloat, build: buildAvg}, true
	}
	switch {
	case kind == expr.AggSum && arg == types.KindInt:
		return scalarMonoid(int64(0), sumOf[int64], types.IntValue), true
	case kind == expr.AggMax && arg == types.KindInt:
		return scalarMonoid(int64(math.MinInt64), maxOf[int64], types.IntValue), true
	case kind == expr.AggMin && arg == types.KindInt:
		return scalarMonoid(int64(math.MaxInt64), minOf[int64], types.IntValue), true
	case kind == expr.AggSum && arg == types.KindFloat:
		return scalarMonoid(0.0, sumOf[float64], types.FloatValue), true
	case kind == expr.AggMax && arg == types.KindFloat:
		return scalarMonoid(math.Inf(-1), math.Max, types.FloatValue), true
	case kind == expr.AggMin && arg == types.KindFloat:
		return scalarMonoid(math.Inf(1), math.Min, types.FloatValue), true
	case kind == expr.AggMax && arg == types.KindString:
		return scalarMonoid("", maxOf[string], types.StringValue), true
	case kind == expr.AggMin && arg == types.KindString:
		return scalarMonoid("", minOf[string], types.StringValue), true
	}
	return aggMonoid{}, false
}

// typedArg reports whether kind's monoid depends on its argument's kind
// (COUNT ignores its argument; bag/list box it).
func typedArg(kind expr.AggKind) bool {
	return kind == expr.AggSum || kind == expr.AggMin || kind == expr.AggMax || kind == expr.AggAvg
}

func sumOf[T int64 | float64](acc, v T) T { return acc + v }
func maxOf[T cmp.Ordered](acc, v T) T     { return max(acc, v) }
func minOf[T cmp.Ordered](acc, v T) T     { return min(acc, v) }

// compileAggStates compiles one fresh state per aggregate, arguments
// compiled for tuples or, when vec, for batches.
func (c *Compiler) compileAggStates(aggs []expr.Agg, vec bool) ([]aggState, error) {
	states := make([]aggState, len(aggs))
	for i, a := range aggs {
		var arg types.Type
		var argKind types.Kind
		if typedArg(a.Kind) {
			t, err := c.typeOf(a.Arg)
			if err != nil {
				return nil, err
			}
			arg, argKind = t, t.Kind()
		}
		m, ok := monoidOf(a.Kind, argKind)
		if !ok {
			return nil, fmt.Errorf("exec: unsupported aggregate %s over %s", a.Kind, arg)
		}
		st, err := m.build(c, a.Arg, vec)
		if err != nil {
			return nil, err
		}
		states[i] = st
	}
	return states, nil
}

// freshStates returns zeroed copies of protos.
func freshStates(protos []aggState) []aggState {
	states := make([]aggState, len(protos))
	for i, p := range protos {
		states[i] = p.fresh()
	}
	return states
}

// absorbStates folds src's partials into dst, aggregate by aggregate.
func absorbStates(dst, src []aggState) {
	for i, s := range dst {
		s.absorb(src[i].partial())
	}
}

// aggArg is one aggregate's compiled argument, shared by all of its states:
// the tuple evaluator or the batch kernel (whichever the root compiled),
// the per-batch column holder bind loads for foldLane, and the monoid's
// zero, combine and boxing from the table.
type aggArg[T int64 | float64 | string] struct {
	ev      func(r *vbuf.Regs) (T, bool)
	vec     func(b *vbuf.Batch) ([]T, []bool)
	v       []T
	null    []bool
	zero    T
	combine func(acc, v T) T
	box     func(T) types.Value
}

func (a *aggArg[T]) bind(b *vbuf.Batch) { a.v, a.null = a.vec(b) }

// compile compiles e into a's tuple evaluator or, when vec, its kernel.
func (a *aggArg[T]) compile(c *Compiler, e expr.Expr, vec bool) error {
	var err error
	switch a := any(a).(type) {
	case *aggArg[int64]:
		if vec {
			a.vec, err = c.compileVecInt(e)
		} else {
			a.ev, err = c.compileInt(e)
		}
	case *aggArg[float64]:
		if vec {
			a.vec, err = c.compileVecFloat(e)
		} else {
			a.ev, err = c.compileFloat(e)
		}
	case *aggArg[string]:
		if vec {
			a.vec, err = c.compileVecStr(e)
		} else {
			a.ev, err = c.compileStr(e)
		}
	}
	return err
}

// countState counts folded rows (COUNT ignores its argument).
type countState struct{ n int64 }

func (s *countState) fold(*vbuf.Regs)         { s.n++ }
func (s *countState) foldBatch(b *vbuf.Batch) { s.n += int64(len(b.Sel)) }
func (s *countState) bind(*vbuf.Batch)        {}
func (s *countState) foldLane(int32)          { s.n++ }
func (s *countState) result() types.Value     { return types.IntValue(s.n) }
func (s *countState) partial() any            { return s.n }
func (s *countState) absorb(p any)            { s.n += p.(int64) }
func (s *countState) fresh() aggState         { return &countState{} }

// scalarState is sum/min/max over one scalar type: the first non-NULL value
// is taken as is, later ones combine in fold order. An empty state keeps
// the monoid's zero, which the fragment wire format carries.
type scalarState[T int64 | float64 | string] struct {
	arg *aggArg[T]
	scalarPart[T]
}

func scalarMonoid[T int64 | float64 | string](zero T, combine func(acc, v T) T, box func(T) types.Value) aggMonoid {
	return aggMonoid{batch: true, build: func(c *Compiler, e expr.Expr, vec bool) (aggState, error) {
		a := &aggArg[T]{zero: zero, combine: combine, box: box}
		if err := a.compile(c, e, vec); err != nil {
			return nil, err
		}
		return &scalarState[T]{arg: a, scalarPart: scalarPart[T]{v: zero}}, nil
	}}
}

func (s *scalarState[T]) add(v T) {
	if s.seen {
		v = s.arg.combine(s.v, v)
	}
	s.v, s.seen = v, true
}

func (s *scalarState[T]) fold(r *vbuf.Regs) {
	if v, ok := s.arg.ev(r); ok {
		s.add(v)
	}
}

func (s *scalarState[T]) foldBatch(b *vbuf.Batch) {
	v, nn := s.arg.vec(b)
	acc, seen, combine := s.v, s.seen, s.arg.combine
	for _, j := range b.Sel {
		if nn != nil && nn[j] {
			continue
		}
		if seen {
			acc = combine(acc, v[j])
		} else {
			acc, seen = v[j], true
		}
	}
	s.v, s.seen = acc, seen
}

func (s *scalarState[T]) bind(b *vbuf.Batch) { s.arg.bind(b) }

func (s *scalarState[T]) foldLane(j int32) {
	if a := s.arg; a.null == nil || !a.null[j] {
		s.add(a.v[j])
	}
}

func (s *scalarState[T]) result() types.Value {
	if !s.seen {
		return types.NullValue()
	}
	return s.arg.box(s.v)
}

func (s *scalarState[T]) partial() any { return s.scalarPart }

func (s *scalarState[T]) absorb(p any) {
	if o := p.(scalarPart[T]); o.seen {
		s.add(o.v)
	}
}

func (s *scalarState[T]) fresh() aggState {
	return &scalarState[T]{arg: s.arg, scalarPart: scalarPart[T]{v: s.arg.zero}}
}

// avgState folds AVG as (sum, count), merged before the quotient.
type avgState struct {
	arg *aggArg[float64]
	avgPart
}

func buildAvg(c *Compiler, e expr.Expr, vec bool) (aggState, error) {
	a := &aggArg[float64]{}
	if err := a.compile(c, e, vec); err != nil {
		return nil, err
	}
	return &avgState{arg: a}, nil
}

func (s *avgState) fold(r *vbuf.Regs) {
	if v, ok := s.arg.ev(r); ok {
		s.sum += v
		s.n++
	}
}

func (s *avgState) foldBatch(b *vbuf.Batch) {
	v, nn := s.arg.vec(b)
	for _, j := range b.Sel {
		if nn == nil || !nn[j] {
			s.sum += v[j]
			s.n++
		}
	}
}

func (s *avgState) bind(b *vbuf.Batch) { s.arg.bind(b) }

func (s *avgState) foldLane(j int32) {
	if a := s.arg; a.null == nil || !a.null[j] {
		s.sum += a.v[j]
		s.n++
	}
}

func (s *avgState) result() types.Value {
	if s.n == 0 {
		return types.NullValue()
	}
	return types.FloatValue(s.sum / float64(s.n))
}

func (s *avgState) partial() any { return s.avgPart }

func (s *avgState) absorb(p any) {
	o := p.(avgPart)
	s.sum += o.sum
	s.n += o.n
}

func (s *avgState) fresh() aggState { return &avgState{arg: s.arg} }

// elemsState collects a bag or list aggregate's elements (NULLs included).
// It folds tuples only: monoidOf gives it no batch folds, so vectorized
// roots never compile it.
type elemsState struct {
	ev    evalVal
	kind  types.Kind
	elems []types.Value
}

func elemsMonoid(kind expr.AggKind) func(c *Compiler, e expr.Expr, vec bool) (aggState, error) {
	k := types.KindBag
	if kind == expr.AggList {
		k = types.KindList
	}
	return func(c *Compiler, e expr.Expr, vec bool) (aggState, error) {
		if vec {
			return nil, fmt.Errorf("exec: aggregate %s is not vectorizable", kind)
		}
		ev, err := c.compileVal(e)
		if err != nil {
			return nil, err
		}
		return &elemsState{ev: ev, kind: k}, nil
	}
}

func (s *elemsState) fold(r *vbuf.Regs) {
	v, ok := s.ev(r)
	if !ok {
		v = types.NullValue()
	}
	s.elems = append(s.elems, v)
}

func (s *elemsState) foldBatch(*vbuf.Batch) { panic("exec: bag/list aggregates fold tuples only") }
func (s *elemsState) bind(*vbuf.Batch)      { panic("exec: bag/list aggregates fold tuples only") }
func (s *elemsState) foldLane(int32)        { panic("exec: bag/list aggregates fold tuples only") }
func (s *elemsState) result() types.Value   { return types.Value{Kind: s.kind, Elems: s.elems} }
func (s *elemsState) partial() any          { return s.elems }
func (s *elemsState) absorb(p any)          { s.elems = append(s.elems, p.([]types.Value)...) }
func (s *elemsState) fresh() aggState       { return &elemsState{ev: s.ev, kind: s.kind} }

// compileOptPred compiles a root's optional embedded predicate (nil: none).
func (c *Compiler) compileOptPred(e expr.Expr) (evalBool, error) {
	if e == nil {
		return nil, nil
	}
	return c.compileBool(e)
}

// passes reports whether the current tuple satisfies an optional predicate.
func passes(pred evalBool, r *vbuf.Regs) bool {
	if pred == nil {
		return true
	}
	v, ok := pred(r)
	return ok && v
}

// reducePartial is the mergeable state of one Reduce evaluation: either the
// collected output rows (bag/list yield) or one state per aggregate, folded
// by tuples or by batches. Parallel workers each hold one and merge them at
// the pipeline breaker; the serial path holds exactly one.
type reducePartial struct {
	collect bool
	names   []string
	rows    []types.Value
	accs    []aggState
	// rowsCell, when profiled, receives the output cardinality at result
	// materialization — blocking roots never flow through a consume wrapper,
	// so they self-report (see profile.go).
	rowsCell *int64
}

func (p *reducePartial) reset() {
	p.rows = nil
	for i, a := range p.accs {
		p.accs[i] = a.fresh()
	}
}

func (p *reducePartial) merge(o partialState) error {
	other, ok := o.(*reducePartial)
	if !ok {
		return fmt.Errorf("exec: cannot merge %T into reduce state", o)
	}
	if p.collect {
		p.rows = append(p.rows, other.rows...)
		return nil
	}
	absorbStates(p.accs, other.accs)
	return nil
}

func (p *reducePartial) result() (*Result, error) {
	if p.collect {
		if p.rowsCell != nil {
			*p.rowsCell = int64(len(p.rows))
		}
		return &Result{Cols: []string{p.names[0]}, Rows: p.rows}, nil
	}
	if p.rowsCell != nil {
		*p.rowsCell = 1
	}
	vals := make([]types.Value, len(p.accs))
	for i, acc := range p.accs {
		vals[i] = acc.result()
	}
	return &Result{Cols: p.names, Rows: []types.Value{types.RecordValue(p.names, vals)}}, nil
}

// compileReducePartial compiles the Reduce pipeline into a driver plus the
// mergeable partial state it folds into. A vectorizable pipeline compiles
// into batch kernels instead (vagg.go, vsort.go); all parallel clones of a
// plan make the same choice.
func (c *Compiler) compileReducePartial(red *algebra.Reduce) (func(r *vbuf.Regs) error, partialState, error) {
	if run, vst, ok, err := c.tryVecReduce(red); err != nil {
		return nil, nil, err
	} else if ok {
		return run, vst, nil
	}
	if run, vst, ok, err := c.tryVecCollect(red); err != nil {
		return nil, nil, err
	} else if ok {
		return run, vst, nil
	}
	st := &reducePartial{names: red.Names, rowsCell: c.rootRowsCell(red)}
	var pred evalBool
	gauge := c.mem
	var pending int64

	// Collection yield: one bag/list aggregate produces the result rows.
	if len(red.Aggs) == 1 && (red.Aggs[0].Kind == expr.AggBag || red.Aggs[0].Kind == expr.AggList) {
		st.collect = true
		var ev evalVal
		run, err := c.compileChildThen(red.Child, func() (Kont, error) {
			e, err := c.compileVal(red.Aggs[0].Arg)
			if err != nil {
				return nil, err
			}
			ev = e
			if pred, err = c.compileOptPred(red.Pred); err != nil {
				return nil, err
			}
			return func(r *vbuf.Regs) error {
				if !passes(pred, r) {
					return nil
				}
				v, ok := ev(r)
				if !ok {
					v = types.NullValue()
				}
				st.rows = append(st.rows, v)
				if gauge != nil {
					if pending += 64; pending >= memQuantum {
						err := gauge.charge(pending)
						pending = 0
						if err != nil {
							return err
						}
					}
				}
				return nil
			}, nil
		})
		if err != nil {
			return nil, nil, err
		}
		return run, st, nil
	}

	// Aggregate yield: fold every state in one pass.
	run, err := c.compileChildThen(red.Child, func() (Kont, error) {
		accs, err := c.compileAggStates(red.Aggs, false)
		if err != nil {
			return nil, err
		}
		st.accs = accs
		if pred, err = c.compileOptPred(red.Pred); err != nil {
			return nil, err
		}
		return func(r *vbuf.Regs) error {
			if !passes(pred, r) {
				return nil
			}
			for _, acc := range st.accs {
				acc.fold(r)
			}
			return nil
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return run, st, nil
}

// compileReduce compiles the root Reduce for serial execution.
func (c *Compiler) compileReduce(red *algebra.Reduce) (func(r *vbuf.Regs) (*Result, error), error) {
	run, st, err := c.compileReducePartial(red)
	if err != nil {
		return nil, err
	}
	return func(r *vbuf.Regs) (*Result, error) {
		// Re-arm state for repeated executions of the same program.
		st.reset()
		if err := run(r); err != nil {
			return nil, err
		}
		return st.result()
	}, nil
}

// group holds one hash-group's aggregate states during Nest evaluation.
type group struct {
	hash    uint64
	keyVals []types.Value
	accs    []aggState
}

// nestPartial is the mergeable grouping state of one Nest evaluation, folded
// by tuples or (single int key) by batches. Merging adopts groups first seen
// by later workers in worker order, so the merged first-encounter order
// equals the serial scan order (workers hold contiguous, ordered morsel
// ranges).
type nestPartial struct {
	outNames []string
	// protos holds one state per aggregate: every group starts from fresh
	// copies, and the batch fold binds each aggregate's argument through it.
	protos []aggState

	// New groups are charged groupBytes each to gauge (nil: no budget),
	// flushed in memQuantum steps.
	gauge      *memGauge
	groupBytes int64
	pending    int64

	// Fast path: single integer key, results ascending by key. NULL keys
	// form their own group (intNull), matching the general path and the
	// Volcano baseline.
	singleInt bool
	intGroups map[int64][]aggState
	intOrder  []int64
	intNull   []aggState

	// General path: composite/boxed keys hashed by canonical value hash.
	groups map[uint64][]*group
	order  []*group

	// rowsCell, when profiled, receives the group count at result
	// materialization (see reducePartial.rowsCell).
	rowsCell *int64
}

// newNestPartial allocates n's state; the caller sets protos and singleInt.
func (c *Compiler) newNestPartial(n *algebra.Nest) *nestPartial {
	return &nestPartial{
		outNames: append(append([]string{}, n.GroupNames...), n.AggNames...),
		gauge:    c.mem,
		// Estimated footprint of one new group: map/order bookkeeping plus
		// the per-group aggregate states.
		groupBytes: int64(96 + len(n.GroupBy)*48 + len(n.Aggs)*96),
		rowsCell:   c.rootRowsCell(n),
	}
}

func (p *nestPartial) reset() {
	if p.singleInt {
		p.intGroups = map[int64][]aggState{}
		p.intOrder = nil
		p.intNull = nil
		return
	}
	p.groups = map[uint64][]*group{}
	p.order = nil
}

// newGroup returns fresh states for a first-seen group and charges its
// footprint to the memory budget.
func (p *nestPartial) newGroup() ([]aggState, error) {
	accs := freshStates(p.protos)
	if p.gauge != nil {
		if p.pending += p.groupBytes; p.pending >= memQuantum {
			err := p.gauge.charge(p.pending)
			p.pending = 0
			return accs, err
		}
	}
	return accs, nil
}

// intGroup returns the states of single-int group k (the NULL-key group
// when null), creating the group on first sight.
func (p *nestPartial) intGroup(k int64, null bool) ([]aggState, error) {
	if null {
		if p.intNull != nil {
			return p.intNull, nil
		}
		accs, err := p.newGroup()
		p.intNull = accs
		return accs, err
	}
	if accs, ok := p.intGroups[k]; ok {
		return accs, nil
	}
	accs, err := p.newGroup()
	p.intGroups[k] = accs
	p.intOrder = append(p.intOrder, k)
	return accs, err
}

// lookup finds the general-path group with keyVals in hash bucket h.
func (p *nestPartial) lookup(h uint64, keyVals []types.Value) *group {
	for _, g := range p.groups[h] {
		if sameKeys(g.keyVals, keyVals) {
			return g
		}
	}
	return nil
}

// adopt appends g as a first-seen general-path group.
func (p *nestPartial) adopt(g *group) {
	p.groups[g.hash] = append(p.groups[g.hash], g)
	p.order = append(p.order, g)
}

func (p *nestPartial) merge(o partialState) error {
	other, ok := o.(*nestPartial)
	if !ok {
		return fmt.Errorf("exec: cannot merge %T into nest state", o)
	}
	if p.singleInt {
		for _, k := range other.intOrder {
			if accs, exists := p.intGroups[k]; exists {
				absorbStates(accs, other.intGroups[k])
				continue
			}
			p.intGroups[k] = other.intGroups[k]
			p.intOrder = append(p.intOrder, k)
		}
		if other.intNull != nil {
			if p.intNull == nil {
				p.intNull = other.intNull
			} else {
				absorbStates(p.intNull, other.intNull)
			}
		}
		return nil
	}
	for _, og := range other.order {
		if g := p.lookup(og.hash, og.keyVals); g != nil {
			absorbStates(g.accs, og.accs)
		} else {
			p.adopt(og)
		}
	}
	return nil
}

func sameKeys(a, b []types.Value) bool {
	for i := range a {
		if types.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

func (p *nestPartial) result() (*Result, error) {
	row := func(keyVals []types.Value, accs []aggState) types.Value {
		vals := make([]types.Value, 0, len(p.outNames))
		vals = append(vals, keyVals...)
		for _, acc := range accs {
			vals = append(vals, acc.result())
		}
		return types.RecordValue(p.outNames, vals)
	}
	if !p.singleInt {
		if p.rowsCell != nil {
			*p.rowsCell = int64(len(p.order))
		}
		rows := make([]types.Value, 0, len(p.order))
		for _, g := range p.order {
			rows = append(rows, row(g.keyVals, g.accs))
		}
		return &Result{Cols: p.outNames, Rows: rows}, nil
	}
	sort.Slice(p.intOrder, func(i, j int) bool { return p.intOrder[i] < p.intOrder[j] })
	rows := make([]types.Value, 0, len(p.intOrder)+1)
	if p.intNull != nil {
		rows = append(rows, row([]types.Value{types.NullValue()}, p.intNull))
	}
	for _, k := range p.intOrder {
		rows = append(rows, row([]types.Value{types.IntValue(k)}, p.intGroups[k]))
	}
	if p.rowsCell != nil {
		*p.rowsCell = int64(len(rows))
	}
	return &Result{Cols: p.outNames, Rows: rows}, nil
}

// compileNestPartial compiles the Nest pipeline (radix-hash grouping with
// per-group aggregate states, §5.1) into a driver plus its mergeable state.
// Single integer group-by keys take a specialized path — vectorized when
// the pipeline below allows it (vagg.go), tuple-at-a-time otherwise.
func (c *Compiler) compileNestPartial(n *algebra.Nest) (func(r *vbuf.Regs) error, partialState, error) {
	if run, vst, ok, err := c.tryVecNest(n); err != nil {
		return nil, nil, err
	} else if ok {
		return run, vst, nil
	}
	st := c.newNestPartial(n)
	if len(n.GroupBy) == 1 {
		if t, err := c.typeOf(n.GroupBy[0]); err == nil && t.Kind() == types.KindInt {
			st.singleInt = true
		}
	}
	var pred evalBool
	compileAggs := func() error {
		protos, err := c.compileAggStates(n.Aggs, false)
		if err != nil {
			return err
		}
		st.protos = protos
		pred, err = c.compileOptPred(n.Pred)
		return err
	}

	if st.singleInt {
		run, err := c.compileChildThen(n.Child, func() (Kont, error) {
			keyEval, err := c.compileInt(n.GroupBy[0])
			if err != nil {
				return nil, err
			}
			if err := compileAggs(); err != nil {
				return nil, err
			}
			return func(r *vbuf.Regs) error {
				if !passes(pred, r) {
					return nil
				}
				k, ok := keyEval(r)
				accs, err := st.intGroup(k, !ok)
				if err != nil {
					return err
				}
				for _, acc := range accs {
					acc.fold(r)
				}
				return nil
			}, nil
		})
		if err != nil {
			return nil, nil, err
		}
		return run, st, nil
	}

	keyEvals := make([]evalVal, len(n.GroupBy))
	run, err := c.compileChildThen(n.Child, func() (Kont, error) {
		for i, g := range n.GroupBy {
			ev, err := c.compileVal(g)
			if err != nil {
				return nil, err
			}
			keyEvals[i] = ev
		}
		if err := compileAggs(); err != nil {
			return nil, err
		}
		return func(r *vbuf.Regs) error {
			if !passes(pred, r) {
				return nil
			}
			h := uint64(14695981039346656037)
			keyVals := make([]types.Value, len(keyEvals))
			for i, ev := range keyEvals {
				v, ok := ev(r)
				if !ok {
					v = types.NullValue()
				}
				keyVals[i] = v
				h = hashMix(h, v.Hash())
			}
			g := st.lookup(h, keyVals)
			if g == nil {
				accs, err := st.newGroup()
				g = &group{hash: h, keyVals: keyVals, accs: accs}
				st.adopt(g)
				if err != nil {
					return err
				}
			}
			for _, acc := range g.accs {
				acc.fold(r)
			}
			return nil
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return run, st, nil
}

// compileNest compiles the root Nest for serial execution.
func (c *Compiler) compileNest(n *algebra.Nest) (func(r *vbuf.Regs) (*Result, error), error) {
	run, st, err := c.compileNestPartial(n)
	if err != nil {
		return nil, err
	}
	return func(r *vbuf.Regs) (*Result, error) {
		st.reset()
		if err := run(r); err != nil {
			return nil, err
		}
		return st.result()
	}, nil
}
