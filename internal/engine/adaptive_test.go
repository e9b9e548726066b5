package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"proteus/internal/exec"
	"proteus/internal/obs"
	"proteus/internal/plugin"
	"proteus/internal/types"
)

// TestAutoModeIsStatic pins auto mode as the compiler's one static rule:
// repeated runs of the same plan never change its mode (no feedback, no
// exploration), a sub-two-batch dataset stays tuple, and the forced modes
// report their config as the source.
func TestAutoModeIsStatic(t *testing.T) {
	// Plan caching off so every run recompiles and re-decides; the data
	// cache on so later runs scan cache-resident columns.
	e := newVecEngine(t, Config{Parallelism: 1, Vectorized: exec.VecAuto,
		CacheEnabled: true, PlanCacheSize: -1})
	q := "SELECT SUM(val) FROM big WHERE id < 2500" // big spans ≥ 2 batches
	for run := 1; run <= 6; run++ {
		if _, err := e.QuerySQL(q); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		want := []obs.ModeDecisionCount{{Mode: "vectorized", Source: "heuristic", Count: int64(run)}}
		if got := e.Metrics().ModeDecisions; !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: mode decisions = %+v, want %+v", run, got, want)
		}
	}
	p, err := e.PrepareSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if out := p.Explain(); !strings.Contains(out, "mode: vectorized (heuristic)") {
		t.Errorf("warm auto plan did not compile vectorized by the heuristic:\n%s", out)
	}

	small := newTestEngine(t, Config{Vectorized: exec.VecAuto}) // 5-row datasets
	p, err = small.PrepareSQL("SELECT SUM(val) FROM nums")
	if err != nil {
		t.Fatal(err)
	}
	if out := p.Explain(); !strings.Contains(out, "mode: tuple (heuristic)") {
		t.Errorf("sub-two-batch dataset did not compile tuple by the heuristic:\n%s", out)
	}

	for _, c := range []struct {
		mode exec.VecMode
		want string
	}{
		{exec.VecOn, "mode: vectorized (config)"},
		{exec.VecOff, "mode: tuple (config)"},
	} {
		p, err := newVecEngine(t, Config{Parallelism: 1, Vectorized: c.mode}).PrepareSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		if out := p.Explain(); !strings.Contains(out, c.want) {
			t.Errorf("Vectorized=%d: EXPLAIN lacks %q:\n%s", c.mode, c.want, out)
		}
	}
}

// Robustness mid-batch in the new vectorized operators.

func TestVectorizedJoinCancelMidProbe(t *testing.T) {
	e := New(Config{Parallelism: 1, Vectorized: exec.VecOn})
	slow := newSlowInput(1<<20, 50*time.Microsecond)
	e.RegisterPlugin(slow)
	slowSchema := types.NewRecordType(types.Field{Name: "id", Type: types.Int})
	if err := e.Register("slow", "slow://t", "slow", slowSchema, plugin.Options{}); err != nil {
		t.Fatal(err)
	}
	// Small CSV build side; the slow table drives the vectorized probe.
	e.Mem().PutFile("mem://dim.csv", []byte("1\n2\n3\n4\n5\n"))
	if err := e.Register("dim", "mem://dim.csv", "csv", slowSchema, plugin.Options{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.QuerySQLContext(ctx, "SELECT COUNT(*) FROM slow a JOIN dim b ON a.id = b.id")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // mid-probe, inside a batch
	cancel()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
			t.Fatalf("cancelled vectorized join returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("vectorized join ignored cancellation")
	}
}

func TestVectorizedJoinTimeoutMidProbe(t *testing.T) {
	e := New(Config{Parallelism: 1, Vectorized: exec.VecOn, QueryTimeout: 30 * time.Millisecond})
	slow := newSlowInput(1<<20, 50*time.Microsecond)
	e.RegisterPlugin(slow)
	slowSchema := types.NewRecordType(types.Field{Name: "id", Type: types.Int})
	if err := e.Register("slow", "slow://t", "slow", slowSchema, plugin.Options{}); err != nil {
		t.Fatal(err)
	}
	e.Mem().PutFile("mem://dim.csv", []byte("1\n2\n3\n"))
	if err := e.Register("dim", "mem://dim.csv", "csv", slowSchema, plugin.Options{}); err != nil {
		t.Fatal(err)
	}
	_, err := e.QuerySQL("SELECT COUNT(*) FROM slow a JOIN dim b ON a.id = b.id")
	if err == nil || !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
		t.Fatalf("timed-out vectorized join returned %v", err)
	}
}

func TestVectorizedJoinMemBudget(t *testing.T) {
	// 3000 build rows at >= 24 bytes of charged key state blow a 32 KiB
	// budget from inside the vectorized build terminate.
	e := newVecEngine(t, Config{Parallelism: 1, Vectorized: exec.VecOn, QueryMemBudget: 32 << 10})
	_, err := e.QuerySQL("SELECT COUNT(*) FROM big a JOIN bigbin b ON a.id = b.id")
	if err == nil {
		t.Fatal("vectorized join under tiny budget succeeded")
	}
	if !strings.Contains(err.Error(), exec.ErrMemBudget.Error()) {
		t.Fatalf("want mem-budget error, got %v", err)
	}
	// The engine stays usable within budget.
	if _, err := e.QuerySQL("SELECT COUNT(*) FROM big WHERE val < 50"); err != nil {
		t.Fatalf("follow-up query: %v", err)
	}
}

func TestVectorizedSortMemBudget(t *testing.T) {
	// 3000 collected rows charge 64 bytes each — the columnar collect must
	// fail the same way the row-wise sort buffer would.
	e := newVecEngine(t, Config{Parallelism: 1, Vectorized: exec.VecOn, QueryMemBudget: 64 << 10})
	_, err := e.QuerySQL("SELECT id, val FROM big ORDER BY val")
	if err == nil {
		t.Fatal("vectorized ORDER BY under tiny budget succeeded")
	}
	if !strings.Contains(err.Error(), exec.ErrMemBudget.Error()) {
		t.Fatalf("want mem-budget error, got %v", err)
	}
	// A bounded sort on the same engine succeeds.
	res, err := e.QuerySQL("SELECT id, val FROM big WHERE id < 200 ORDER BY val")
	if err != nil {
		t.Fatalf("bounded ORDER BY: %v", err)
	}
	if len(res.Rows) != 200 {
		t.Fatalf("bounded ORDER BY returned %d rows, want 200", len(res.Rows))
	}
}

// TestSortedProgramSkipsEngineSort: when the columnar collect absorbed the
// ORDER BY, the program reports Sorted and still emits exactly the limited,
// ordered rows.
func TestSortedProgramSkipsEngineSort(t *testing.T) {
	e := newVecEngine(t, Config{Parallelism: 1, Vectorized: exec.VecOn})
	p, err := e.PrepareSQL("SELECT id, name FROM big WHERE val < 50 ORDER BY id DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Program.Sorted {
		t.Fatalf("columnar collect did not absorb the ORDER BY:\n%s", p.Explain())
	}
	res, err := p.Program.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(res.Rows))
	}
	prev := int64(1 << 62)
	for _, row := range res.Rows {
		v, _ := row.Field("id")
		if v.AsInt() > prev {
			t.Fatalf("rows not descending: %v", res.Rows)
		}
		prev = v.AsInt()
	}
}
