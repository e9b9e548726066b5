// Engine-side cluster wiring: routing eligible queries through the
// scatter/gather coordinator (with transparent local fallback) and serving
// fragment requests when this engine is a worker. The coordinator itself —
// topology, partitioning, the scatter client — lives in internal/cluster;
// the wire codec and merge contract in internal/exec (fragment.go).
package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"proteus/internal/algebra"
	"proteus/internal/calculus"
	"proteus/internal/cluster"
	"proteus/internal/comp"
	"proteus/internal/exec"
	"proteus/internal/obs"
	"proteus/internal/optimizer"
	"proteus/internal/sql"
)

// ErrFragmentMismatch reports that this worker's locally optimized plan has
// a different fingerprint than the coordinator's — the catalogs or
// statistics of the two nodes have drifted. The query service maps it to
// 409 Conflict, which the coordinator treats as "fall back to local".
var ErrFragmentMismatch = errors.New("engine: fragment plan fingerprint mismatch")

// Cluster returns the engine's scatter/gather coordinator (nil when this
// engine is not a coordinator). The query service uses it to wire the
// topology endpoints.
func (e *Engine) Cluster() *cluster.Coordinator { return e.cluster }

// clusterExec tries to run a prepared query distributed. handled=false
// means the plan is not cluster-eligible (or a worker's plan diverged) and
// the caller must run the local program. On success the coordinator-merged
// result gets the statement's ORDER BY / LIMIT applied here — the same
// post-processing a local unsorted program receives — so distributed and
// local results are interchangeable.
func (e *Engine) clusterExec(ctx context.Context, lang, query string, p *Prepared) (*exec.Result, []obs.Span, bool, error) {
	if e.cluster == nil {
		return nil, nil, false, nil
	}
	env := &exec.Env{Catalog: e, Caches: e.caches, Stats: e.stats, Metrics: e.metrics, MemBudget: e.memBudget}
	res, spans, handled, err := e.cluster.Execute(ctx, env, lang, query, p.Plan, QueryTag(ctx))
	if !handled || err != nil {
		return res, spans, handled, err
	}
	if p.Sort != nil {
		fragments := res.Fragments
		res, err = exec.OrderAndLimit(res, p.Sort.By, p.Sort.Desc, p.Sort.Limit)
		if err != nil {
			return nil, spans, true, err
		}
		res.Fragments = fragments
	}
	return res, spans, true, nil
}

// runPrepared executes a prepared query on the untraced path: distributed
// when the coordinator takes it, the local program otherwise. The per-plan
// feedback store only observes local runs — distributed timings would
// skew the local plan's statistics.
func (e *Engine) runPrepared(ctx context.Context, lang, query string, p *Prepared) (*exec.Result, error) {
	if e.cluster != nil {
		res, _, handled, err := e.clusterExec(ctx, lang, query, p)
		if handled {
			return res, err
		}
	}
	return e.runPlain(ctx, query, p.Program)
}

// planFor runs the front half of the life-cycle — calculus → optimize —
// without compiling, for callers that need only the optimized plan.
func (e *Engine) planFor(ctx context.Context, c *calculus.Comprehension) (algebra.Node, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if err := calculus.ResolveColumns(c, e); err != nil {
		return nil, err
	}
	plan, err := calculus.Translate(calculus.Normalize(c), e)
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return optimizer.Optimize(plan, &optimizer.Env{Stats: e.stats, Costs: e}), nil
}

// ExecuteFragment serves one scatter request as a cluster worker: re-plan
// the query text locally, verify the plan fingerprint against the
// coordinator's (wantFP, when non-empty), execute only [start, end) of the
// driving scan, and return the serialized partial state. Fragments run
// under the full query life-cycle discipline — drain rejection, admission
// gating, the configured timeout, memory budget, panic isolation, and
// outcome classification — exactly like whole queries.
func (e *Engine) ExecuteFragment(ctx context.Context, lang, query string, start, end int64, wantFP string) (*exec.Partial, error) {
	if err := e.beginQuery(); err != nil {
		return nil, err
	}
	defer e.endQuery()
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
	p, err := func() (*exec.Partial, error) {
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
		plan, err := e.planFor(ctx, c)
		if err != nil {
			return nil, err
		}
		if wantFP != "" && plan.Fingerprint() != wantFP {
			return nil, fmt.Errorf("%w: coordinator has %s, this worker planned %s",
				ErrFragmentMismatch, wantFP, plan.Fingerprint())
		}
		env := &exec.Env{Catalog: e, Caches: e.caches, Stats: e.stats, MemBudget: e.memBudget}
		fprog, err := exec.CompileFragment(plan, env, start, end)
		if err != nil {
			return nil, err
		}
		return fprog.RunContext(ctx)
	}()
	if err != nil {
		return nil, e.finishQuery(query, err)
	}
	e.metrics.ClusterFragmentsServed.Add(1)
	return p, nil
}
