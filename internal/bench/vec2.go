package bench

import (
	"fmt"
	"runtime"
	"strings"

	"proteus/internal/engine"
	"proteus/internal/exec"
	"proteus/internal/plugin"
	"proteus/internal/types"
)

// Vectorized execution round two: joins, ORDER BY, and string predicates.
// Three systems run identical queries over cache-resident data — both forced
// modes and auto's static per-segment rule — so the report shows both the
// kernel speedups and that auto compiles the better mode.

// Vec2SysAuto names auto mode in reports; the two forced systems reuse
// VecSysTuple / VecSysVectorized.
const Vec2SysAuto = "auto(VecAuto)"

var vec2Names = []string{"ash", "birch", "cedar", "oak", "pine", "elm", "willow", "maple"}

// Vec2Queries are the join / ORDER BY / string-predicate shapes PR 9
// vectorizes. The fact table t has VecBenchRows rows; the dimension d has
// 1000 rows keyed by t.val's domain.
var Vec2Queries = []struct {
	Name string
	SQL  string
}{
	{"join_count", "SELECT COUNT(*) FROM t a JOIN d b ON a.val = b.k WHERE b.tag < 500"},
	{"join_project", "SELECT a.id AS id, b.label AS l FROM t a JOIN d b ON a.val = b.k WHERE b.tag < 50"},
	{"order_by_limit", "SELECT id, val, score FROM t WHERE val < 500 ORDER BY score DESC, id LIMIT 100"},
	{"order_by_full", "SELECT id, val FROM t WHERE grp < 10 ORDER BY val, id"},
	{"str_eq", "SELECT COUNT(*) FROM t WHERE name = 'cedar'"},
	{"str_prefix", "SELECT COUNT(*) FROM t WHERE name LIKE 'ce%'"},
	{"str_contains", "SELECT COUNT(*) FROM t WHERE name LIKE '%da%'"},
}

// NewVec2Engine builds the two-table fixture (fact CSV with a string column
// plus an integer-keyed dimension) and runs every benchmark query twice, so
// the adaptive cache holds every column the queries read.
func NewVec2Engine(mode exec.VecMode) (*engine.Engine, error) {
	e := engine.New(engine.Config{
		CacheEnabled: true,
		Parallelism:  1,
		Vectorized:   mode,
		// Plan caching off: the timed programs are prepared after warm-up,
		// against the cache-resident data, so cached plans would only hold
		// memory.
		PlanCacheSize: -1,
	})
	var sb strings.Builder
	for i := 0; i < VecBenchRows; i++ {
		fmt.Fprintf(&sb, "%d,%d,%d,%g,%s\n",
			i, (i*2654435761)%1000, i%97, float64(i%1024)*0.5, vec2Names[i%len(vec2Names)])
	}
	e.Mem().PutFile("mem://vbench2.csv", []byte(sb.String()))
	schema := types.NewRecordType(
		types.Field{Name: "id", Type: types.Int},
		types.Field{Name: "val", Type: types.Int},
		types.Field{Name: "grp", Type: types.Int},
		types.Field{Name: "score", Type: types.Float},
		types.Field{Name: "name", Type: types.String},
	)
	if err := e.Register("t", "mem://vbench2.csv", "csv", schema, plugin.Options{}); err != nil {
		return nil, fmt.Errorf("bench: registering vbench2 fact: %w", err)
	}
	var db strings.Builder
	for k := 0; k < 1000; k++ {
		fmt.Fprintf(&db, "%d,%d,%s\n", k, (k*7919)%1000, vec2Names[k%len(vec2Names)])
	}
	e.Mem().PutFile("mem://vdim2.csv", []byte(db.String()))
	dimSchema := types.NewRecordType(
		types.Field{Name: "k", Type: types.Int},
		types.Field{Name: "tag", Type: types.Int},
		types.Field{Name: "label", Type: types.String},
	)
	if err := e.Register("d", "mem://vdim2.csv", "csv", dimSchema, plugin.Options{}); err != nil {
		return nil, fmt.Errorf("bench: registering vbench2 dim: %w", err)
	}
	for _, q := range Vec2Queries {
		for i := 0; i < 2; i++ {
			if _, err := e.QuerySQL(q.SQL); err != nil {
				return nil, fmt.Errorf("bench: warming %q: %w", q.SQL, err)
			}
		}
	}
	return e, nil
}

// FigVec2 measures every query under all three systems and reports one Row
// per (query, system) with Exp "vec2". All programs are prepared up front
// and timed interleaved: each iteration runs one query under every system
// back to back, so slow phases of the host hit the systems alike, and the
// order rotates per iteration so no system always runs first or last.
// Every timed run starts from a fresh collection, so no run pays for the
// garbage the run before it left. The reported figure is the median across
// iterations: on a shared host run times are bimodal, with rare fast
// phases, and a min-of-iterations compares whichever system happened to
// catch one.
func FigVec2(iters int) ([]Row, error) {
	if iters < 1 {
		iters = 1
	}
	systems := []struct {
		system string
		mode   exec.VecMode
	}{
		{VecSysTuple, exec.VecOff},
		{VecSysVectorized, exec.VecOn},
		{Vec2SysAuto, exec.VecAuto},
	}
	type cell struct {
		prep *engine.Prepared
		secs []float64
	}
	progs := make([][]cell, len(systems))
	for si, m := range systems {
		e, err := NewVec2Engine(m.mode)
		if err != nil {
			return nil, err
		}
		progs[si] = make([]cell, len(Vec2Queries))
		for qi, q := range Vec2Queries {
			prep, err := e.PrepareSQL(q.SQL)
			if err != nil {
				return nil, fmt.Errorf("bench: preparing %q: %w", q.SQL, err)
			}
			progs[si][qi] = cell{prep: prep}
		}
	}
	for i := 0; i < iters; i++ {
		for qi, q := range Vec2Queries {
			for k := range systems {
				c := &progs[(i+k)%len(systems)][qi]
				runtime.GC()
				sec, err := timeIt(func() error {
					_, err := c.prep.Program.Run()
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("bench: running %q: %w", q.SQL, err)
				}
				c.secs = append(c.secs, sec)
			}
		}
	}
	var rows []Row
	for si, m := range systems {
		for qi, q := range Vec2Queries {
			rows = append(rows, Row{
				Exp: "vec2", Query: q.Name, System: m.system,
				Seconds: median(progs[si][qi].secs),
			})
		}
	}
	return rows, nil
}

// vec2Times collects per-query seconds by system.
func vec2Times(rows []Row, query string) (tup, vec, auto float64) {
	for _, r := range rows {
		if r.Exp != "vec2" || r.Query != query {
			continue
		}
		switch r.System {
		case VecSysTuple:
			tup = r.Seconds
		case VecSysVectorized:
			vec = r.Seconds
		case Vec2SysAuto:
			auto = r.Seconds
		}
	}
	return
}

// PrintVec2 renders the figure: forced-mode speedup plus auto's distance
// from the better forced mode.
func PrintVec2(w interface{ Write([]byte) (int, error) }, rows []Row) {
	fmt.Fprintln(w, "== vec2: joins, ORDER BY, string predicates — tuple vs vectorized vs auto (seconds) ==")
	fmt.Fprintf(w, "%-16s%12s%12s%12s%10s%12s\n", "query", "tuple", "vectorized", "auto", "speedup", "auto/best")
	for _, q := range Vec2Queries {
		tup, vec, auto := vec2Times(rows, q.Name)
		if tup == 0 || vec == 0 || auto == 0 {
			continue
		}
		best := tup
		if vec < best {
			best = vec
		}
		fmt.Fprintf(w, "%-16s%12.6f%12.6f%12.6f%9.2fx%11.3fx\n",
			q.Name, tup, vec, auto, tup/vec, auto/best)
	}
	fmt.Fprintln(w)
}

// Vec2Gate checks the acceptance bar: on every covered query, auto stays
// within tolerance of the better forced mode (tolerance 1.05 = within 5%).
// Returns nil when all queries pass.
func Vec2Gate(rows []Row, tolerance float64) error {
	var fails []string
	for _, q := range Vec2Queries {
		tup, vec, auto := vec2Times(rows, q.Name)
		if tup == 0 || vec == 0 || auto == 0 {
			continue
		}
		best := tup
		if vec < best {
			best = vec
		}
		if auto > best*tolerance {
			fails = append(fails, fmt.Sprintf("%s: auto %.6fs vs best static %.6fs (%.3fx > %.2fx)",
				q.Name, auto, best, auto/best, tolerance))
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("vec2 gate: %s", strings.Join(fails, "; "))
	}
	return nil
}
