// The Volcano oracle: parse the rendered query text, resolve and translate
// it exactly as the engine front-end does, then interpret the plan with the
// baseline tuple-at-a-time interpreter over the generated truth rows —
// bypassing the raw-data parsers, the optimizer, the compiler, every
// execution mode, and the caches. Anything those layers get wrong shows up
// as a divergence from this path.
package qcheck

import (
	"fmt"
	"sort"
	"strings"

	"proteus/internal/baseline/volcano"
	"proteus/internal/calculus"
	"proteus/internal/comp"
	"proteus/internal/sql"
	"proteus/internal/types"
)

// resultSet is the normalized shape shared by engine and oracle results.
type resultSet struct {
	Cols []string
	Rows []types.Value
}

func parseQuery(lang, text string, cat calculus.Catalog) (*calculus.Comprehension, error) {
	var (
		c   *calculus.Comprehension
		err error
	)
	if lang == "comp" {
		c, err = comp.Parse(text)
	} else {
		c, err = sql.Parse(text)
	}
	if err != nil {
		return nil, err
	}
	if err := calculus.ResolveColumns(c, cat); err != nil {
		return nil, err
	}
	return c, nil
}

// runOracle executes the query text against the universe's truth rows. The
// returned oracleResult keeps both the final rows and the pre-LIMIT rows
// (sub-multiset checks under LIMIT-without-ORDER BY need the latter). It
// also hands back the parsed comprehension so the caller can read the
// authoritative ORDER BY / LIMIT clauses.
func runOracle(u *universe, lang, text string) (*oracleResult, *calculus.Comprehension, error) {
	cat := calculus.MapCatalog{}
	vol := volcano.New()
	for _, t := range u.Tables {
		cat[t.Name] = t.Schema
		vol.Load(t.Name, t.Rows)
	}
	c, err := parseQuery(lang, text, cat)
	if err != nil {
		return nil, nil, err
	}
	plan, err := calculus.Translate(calculus.Normalize(c), cat)
	if err != nil {
		return nil, nil, err
	}
	res, err := vol.RunPlan(plan)
	if err != nil {
		return nil, nil, err
	}
	all, err := applyOrderLimit(res.Rows, res.Cols, c.OrderBy, c.OrderDesc, 0)
	if err != nil {
		return nil, nil, err
	}
	limited := all
	if c.Limit > 0 && len(limited) > c.Limit {
		limited = limited[:c.Limit]
	}
	return &oracleResult{
		res: &resultSet{Cols: res.Cols, Rows: limited},
		all: all,
	}, c, nil
}

// applyOrderLimit replicates exec.OrderAndLimit over boxed rows: stable
// sort on named output columns (missing fields compare as zero values, as
// Value.Field returns on non-records), then truncation.
func applyOrderLimit(rows []types.Value, cols, orderBy []string, desc []bool, limit int) ([]types.Value, error) {
	out := append([]types.Value(nil), rows...)
	if len(orderBy) > 0 {
		for _, col := range orderBy {
			found := false
			for _, c := range cols {
				if c == col {
					found = true
				}
			}
			if !found && len(out) > 0 {
				_, found = out[0].Field(col)
			}
			if !found {
				if len(out) == 0 {
					continue
				}
				return nil, fmt.Errorf("ORDER BY column %q is not in the output (%v)", col, cols)
			}
		}
		sort.SliceStable(out, func(i, j int) bool {
			for k, col := range orderBy {
				a, _ := out[i].Field(col)
				b, _ := out[j].Field(col)
				c := types.Compare(a, b)
				if c == 0 {
					continue
				}
				if k < len(desc) && desc[k] {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// orderKeyOf extracts the ORDER BY key tuple of a row as a canonical string,
// for prefix/sequence comparisons under LIMIT.
func orderKeyOf(row types.Value, orderBy []string) string {
	var b strings.Builder
	for _, col := range orderBy {
		v, _ := row.Field(col)
		encodeValue(&b, v)
		b.WriteByte('\x1f')
	}
	return b.String()
}
