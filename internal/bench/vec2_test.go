package bench

import (
	"strings"
	"testing"

	"proteus/internal/exec"
)

// TestVec2AutoCompilesVectorized pins what the vec2 gate compares: auto's
// static rule compiles the same program as forced vectorization on every
// single-table Vec2Query, and on the joins differs only in the 1000-row
// dimension d, whose build side stays tuple-at-a-time because it spans
// fewer than two batches.
func TestVec2AutoCompilesVectorized(t *testing.T) {
	on, err := NewVec2Engine(exec.VecOn)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := NewVec2Engine(exec.VecAuto)
	if err != nil {
		t.Fatal(err)
	}
	// buildSide reports the EXPLAIN notes about d's scan and join build.
	buildSide := func(line string) bool {
		return strings.HasPrefix(line, "-- scan d:") || strings.HasPrefix(line, "-- join: vectorized build over d")
	}
	for _, q := range Vec2Queries {
		pOn, err := on.PrepareSQL(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		pAuto, err := auto.PrepareSQL(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		join := strings.Contains(q.SQL, " JOIN ")
		strip := func(explain string) string {
			var kept []string
			for _, line := range strings.Split(explain, "\n") {
				if strings.HasPrefix(line, "-- mode: ") || (join && buildSide(line)) {
					continue
				}
				kept = append(kept, line)
			}
			return strings.Join(kept, "\n")
		}
		if a, o := strip(pAuto.Explain()), strip(pOn.Explain()); a != o {
			t.Errorf("%s: auto and VecOn compile different programs:\nauto:\n%s\nVecOn:\n%s", q.Name, a, o)
		}
		if !strings.Contains(pAuto.Explain(), "-- mode: vectorized (heuristic)") {
			t.Errorf("%s: auto did not vectorize by the heuristic:\n%s", q.Name, pAuto.Explain())
		}
		if !join {
			continue
		}
		for _, line := range strings.Split(pAuto.Explain(), "\n") {
			if buildSide(line) && strings.Contains(line, "vectorized") {
				t.Errorf("%s: auto vectorized the 1000-row build side: %s", q.Name, line)
			}
		}
		if !strings.Contains(pOn.Explain(), "-- join: vectorized build over d") {
			t.Errorf("%s: VecOn did not vectorize the build side:\n%s", q.Name, pOn.Explain())
		}
	}
}
