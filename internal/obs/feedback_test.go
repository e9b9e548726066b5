package obs

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func TestFeedbackWelfordAndModeSplit(t *testing.T) {
	f := NewPlanFeedback(8)
	// Four runs at 10/20/30/40ms returning 100/200/300/400 rows.
	for i := 1; i <= 4; i++ {
		f.Observe("fp1", "SELECT 1", time.Duration(10*i)*time.Millisecond, int64(100*i), false)
	}

	st, ok := f.Lookup("fp1")
	if !ok {
		t.Fatal("fp1 untracked")
	}
	if st.Executions != 4 || st.Rows != 1000 || st.Query != "SELECT 1" {
		t.Errorf("stats = %+v", st)
	}
	if got, want := st.MeanNanos, float64(25*time.Millisecond); math.Abs(got-want) > 1 {
		t.Errorf("mean = %g, want %g", got, want)
	}
	// Sample stddev of {10,20,30,40}ms is ~12.91ms.
	if got := st.StddevNanos / 1e6; math.Abs(got-12.909944) > 1e-3 {
		t.Errorf("stddev = %gms, want ~12.91ms", got)
	}
	if st.Mode != "" || st.ModeSource != "" {
		t.Errorf("mode decision recorded before any compile: %s (%s)", st.Mode, st.ModeSource)
	}
	// The last compile-time decision wins; executions are untouched.
	f.NoteModeDecision("fp1", "", "tuple", "config")
	f.NoteModeDecision("fp1", "", "vectorized", "heuristic")
	st, _ = f.Lookup("fp1")
	if st.Mode != "vectorized" || st.ModeSource != "heuristic" || st.Executions != 4 {
		t.Errorf("after mode decisions: %+v", st)
	}
}

func TestFeedbackErrorsAndNilSafety(t *testing.T) {
	f := NewPlanFeedback(8)
	f.Observe("fp", "q", time.Millisecond, 0, true)
	f.Observe("", "no fingerprint", time.Millisecond, 0, false)
	if st, _ := f.Lookup("fp"); st.Errors != 1 {
		t.Errorf("errors = %d, want 1", st.Errors)
	}
	if f.Len() != 1 {
		t.Errorf("len = %d, want 1 (empty fingerprint ignored)", f.Len())
	}
	var nilStore *PlanFeedback
	nilStore.Observe("fp", "q", time.Millisecond, 1, false)
	nilStore.ObserveProfile(&QueryProfile{Fingerprint: "fp"})
	if nilStore.Snapshot() != nil || nilStore.Len() != 0 {
		t.Error("nil store must track nothing")
	}
	if _, ok := nilStore.Lookup("fp"); ok {
		t.Error("nil store lookup must miss")
	}
}

func TestFeedbackLRUEviction(t *testing.T) {
	f := NewPlanFeedback(3)
	for i := 0; i < 3; i++ {
		f.Observe(fmt.Sprintf("fp%d", i), "q", time.Millisecond, 1, false)
	}
	// Touch fp0 so fp1 becomes the LRU, then overflow.
	f.Observe("fp0", "q", time.Millisecond, 1, false)
	f.Observe("fp3", "q", time.Millisecond, 1, false)
	if f.Len() != 3 {
		t.Fatalf("len = %d, want 3", f.Len())
	}
	if _, ok := f.Lookup("fp1"); ok {
		t.Error("fp1 (the LRU) must have been evicted")
	}
	for _, fp := range []string{"fp0", "fp2", "fp3"} {
		if _, ok := f.Lookup(fp); !ok {
			t.Errorf("%s must have survived", fp)
		}
	}
}

func TestFeedbackObserveProfilePhases(t *testing.T) {
	f := NewPlanFeedback(8)
	qp := &QueryProfile{
		Fingerprint: "fp",
		Query:       "SELECT 1",
		Total:       10 * time.Millisecond,
		Rows:        5,
		Vectorized:  true,
		Phases: []Span{
			{Name: PhaseParse, Dur: time.Millisecond},
			{Name: PhaseExecute, Dur: 8 * time.Millisecond},
			{Name: "not-a-phase", Dur: time.Hour},
		},
	}
	f.ObserveProfile(qp)
	f.ObserveProfile(qp)
	st, _ := f.Lookup("fp")
	if st.Executions != 2 || st.Rows != 10 {
		t.Errorf("stats = %+v", st)
	}
	if got := st.PhaseMeanNanos[PhaseIndex(PhaseExecute)]; got != float64(8*time.Millisecond) {
		t.Errorf("execute phase mean = %g", got)
	}
	if got := st.PhaseMeanNanos[PhaseIndex(PhaseCompile)]; got != 0 {
		t.Errorf("unobserved phase mean = %g, want 0", got)
	}
}

func TestFeedbackSnapshotOrder(t *testing.T) {
	f := NewPlanFeedback(8)
	f.Observe("rare", "q", time.Millisecond, 1, false)
	for i := 0; i < 3; i++ {
		f.Observe("hot", "q", time.Millisecond, 1, false)
	}
	snap := f.Snapshot()
	if len(snap) != 2 || snap[0].Fingerprint != "hot" || snap[1].Fingerprint != "rare" {
		t.Errorf("snapshot order = %v", snap)
	}
}
