// Vectorized aggregation: when the root Reduce/Nest sits directly on a
// vectorizable chain, the fold consumes whole batches — the segment never
// crosses the batch→tuple boundary at all. The roots keep the tuple path's
// partial states (reducePartial, nestPartial) and aggregate states
// (agg.go): only the argument evaluators are batch kernels, and the states'
// batch and lane folds apply the same first-seen/combine protocol in row
// order, so results are bit-identical and parallel merging is unchanged.
package exec

import (
	"proteus/internal/algebra"
	"proteus/internal/expr"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// canVecAgg reports whether a has a batch fold: the monoid table's answer
// for the argument's vectorized kind.
func (c *Compiler) canVecAgg(a expr.Agg, schema *types.RecordType, bind string) bool {
	var arg types.Kind
	if typedArg(a.Kind) {
		k, ok := c.canVecExpr(a.Arg, schema, bind)
		if !ok {
			return false
		}
		arg = k
	}
	m, ok := monoidOf(a.Kind, arg)
	return ok && m.batch
}

// vecRootEligible runs the static checks shared by the vectorized roots: a
// vectorizable chain below, batch folds for every aggregate in aggs, and a
// vectorizable embedded predicate. ch is nil when the root stays
// tuple-at-a-time.
func (c *Compiler) vecRootEligible(child algebra.Node, aggs []expr.Agg, pred expr.Expr) (*vecChain, *types.RecordType) {
	ch := vecChainOf(child)
	if ch == nil {
		return nil, nil
	}
	schema, ok := c.vecEligible(ch)
	if !ok {
		return nil, nil
	}
	for _, a := range aggs {
		if !c.canVecAgg(a, schema, ch.scan.Binding) {
			return nil, nil
		}
	}
	if pred != nil {
		if k, ok := c.canVecExpr(pred, schema, ch.scan.Binding); !ok || k != types.KindBool {
			return nil, nil
		}
	}
	return ch, schema
}

// compileVecPred compiles an optional embedded predicate as a batch filter.
func (c *Compiler) compileVecPred(pred expr.Expr) (vecFilter, error) {
	if pred == nil {
		return nil, nil
	}
	return c.compileVecFilter(pred)
}

// tryVecReduce compiles a Reduce whose child is a vectorizable chain into a
// batch-folding driver over a reducePartial. ok=false means nothing was
// committed and the tuple path proceeds normally; every eligibility check
// is static and precedes slot allocation.
func (c *Compiler) tryVecReduce(red *algebra.Reduce) (func(r *vbuf.Regs) error, *reducePartial, bool, error) {
	if len(red.Aggs) == 1 && (red.Aggs[0].Kind == expr.AggBag || red.Aggs[0].Kind == expr.AggList) {
		return nil, nil, false, nil // collection yield: vsort.go's columnar collect
	}
	ch, _ := c.vecRootEligible(red.Child, red.Aggs, red.Pred)
	if ch == nil {
		return nil, nil, false, nil
	}

	seg, err := c.compileVecSeg(ch)
	if err != nil {
		return nil, nil, true, err
	}
	predFilter, err := c.compileVecPred(red.Pred)
	if err != nil {
		return nil, nil, true, err
	}
	accs, err := c.compileAggStates(red.Aggs, true)
	if err != nil {
		return nil, nil, true, err
	}
	st := &reducePartial{names: red.Names, accs: accs, rowsCell: c.rootRowsCell(red)}
	terminate := func(b *vbuf.Batch, _ *vbuf.Regs) error {
		if predFilter != nil {
			predFilter(b)
		}
		for _, s := range st.accs {
			s.foldBatch(b)
		}
		return nil
	}
	c.note("reduce over %s: vectorized fold (%d aggregates)", ch.scan.Dataset, len(accs))
	return c.compileVecDriver(seg, terminate), st, true, nil
}

// tryVecNest compiles a single-int-key Nest over a vectorizable chain into
// a batch-grouping driver over a nestPartial: the key and every argument
// kernel are evaluated once per batch, the grouping loop walks the
// selection vector, and group states fold lanes from their aggregates'
// bound column holders. Composite and non-int keys stay tuple-at-a-time.
func (c *Compiler) tryVecNest(n *algebra.Nest) (func(r *vbuf.Regs) error, *nestPartial, bool, error) {
	if len(n.GroupBy) != 1 {
		return nil, nil, false, nil
	}
	ch, schema := c.vecRootEligible(n.Child, n.Aggs, n.Pred)
	if ch == nil {
		return nil, nil, false, nil
	}
	if k, ok := c.canVecExpr(n.GroupBy[0], schema, ch.scan.Binding); !ok || k != types.KindInt {
		return nil, nil, false, nil
	}

	seg, err := c.compileVecSeg(ch)
	if err != nil {
		return nil, nil, true, err
	}
	keyKernel, err := c.compileVecInt(n.GroupBy[0])
	if err != nil {
		return nil, nil, true, err
	}
	predFilter, err := c.compileVecPred(n.Pred)
	if err != nil {
		return nil, nil, true, err
	}
	st := c.newNestPartial(n)
	st.singleInt = true
	if st.protos, err = c.compileAggStates(n.Aggs, true); err != nil {
		return nil, nil, true, err
	}

	protos := st.protos
	terminate := func(b *vbuf.Batch, _ *vbuf.Regs) error {
		if predFilter != nil {
			predFilter(b)
		}
		kv, kn := keyKernel(b)
		for _, a := range protos {
			a.bind(b)
		}
		for _, j := range b.Sel {
			accs, err := st.intGroup(kv[j], kn != nil && kn[j])
			if err != nil {
				return err
			}
			for _, s := range accs {
				s.foldLane(j)
			}
		}
		return nil
	}
	c.note("nest over %s: vectorized grouping (int key, %d aggregates)", ch.scan.Dataset, len(protos))
	return c.compileVecDriver(seg, terminate), st, true, nil
}
