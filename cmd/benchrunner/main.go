// Command benchrunner regenerates every table and figure of the paper's
// evaluation (§7): Figures 5–12 (projection / selection / join / group-by
// templates over JSON and binary data at 10–100% selectivity, against the
// three baseline engines), Figure 13 (adaptive-caching speedup), and
// Figure 14 + Table 3 (the 50-query spam workload on three system stacks).
//
//	benchrunner                      # everything, laptop scale
//	benchrunner -exp fig9 -sf 0.05   # one figure, bigger data
//	benchrunner -exp tab3 -spam 50000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"proteus/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig5..fig14, figpar, vec, vec2, idx, obs, tab3, or all")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor for fig5–fig13")
	spam := flag.Int("spam", 10000, "spam scale (JSON objects) for fig14/tab3")
	raw := flag.Bool("raw", false, "also print machine-readable rows")
	jsonOut := flag.String("json", "BENCH_PR2.json", "write a machine-readable report to this path (empty disables)")
	iters := flag.Int("iters", 5, "runs per query for phase-split and overhead medians")
	obsBudget := flag.Float64("obs-budget", 0, "fail (exit 1) if the obs experiment's overhead ratio exceeds this (0 = report only)")
	vec2Tolerance := flag.Float64("vec2-tolerance", 0, "fail (exit 1) if vec2 auto mode exceeds this multiple of the best static mode on any query (0 = report only)")
	flag.Parse()

	want := func(name string) bool { return *exp == "all" || *exp == name }
	var allRows []bench.Row
	var phaseRows []bench.PhaseRow
	obsOverhead := 0.0
	var vec2Rows []bench.Row

	tpchFigs := []struct {
		name  string
		title string
		run   func(*bench.TPCHFixture) ([]bench.Row, error)
	}{
		{"fig5", "Figure 5: projection-intensive queries over JSON data", bench.Fig5},
		{"fig6", "Figure 6: projection-intensive queries over binary relational data", bench.Fig6},
		{"fig7", "Figure 7: selection queries over JSON data", bench.Fig7},
		{"fig8", "Figure 8: selection queries over binary relational data", bench.Fig8},
		{"fig9", "Figure 9: join and unnest queries over JSON data", bench.Fig9},
		{"fig10", "Figure 10: join queries over binary relational data", bench.Fig10},
		{"fig11", "Figure 11: aggregate queries over JSON data", bench.Fig11},
		{"fig12", "Figure 12: aggregate queries over binary relational data", bench.Fig12},
	}
	needTPCH := false
	for _, f := range tpchFigs {
		if want(f.name) {
			needTPCH = true
		}
	}
	if needTPCH {
		fmt.Printf("generating TPC-H subset at SF %g ...\n", *sf)
		fixture, err := bench.NewTPCHFixture(*sf)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("lineitem: %d rows, orders: %d rows\n\n",
			fixture.Data.LineitemRows, fixture.Data.OrdersRows)
		for _, f := range tpchFigs {
			if !want(f.name) {
				continue
			}
			rows, err := f.run(fixture)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", f.name, err))
			}
			bench.PrintFigure(os.Stdout, f.title, rows)
			allRows = append(allRows, rows...)
		}
		if *jsonOut != "" {
			var err error
			phaseRows, err = bench.PhaseSplit(fixture, *iters)
			if err != nil {
				fatal(fmt.Errorf("phase split: %w", err))
			}
			obsOverhead, err = bench.ObsOverhead(*sf, *iters)
			if err != nil {
				fatal(fmt.Errorf("observability overhead: %w", err))
			}
			fmt.Printf("observability overhead: %.3fx (budget < 1.05x)\n\n", obsOverhead)
		}
	}

	if want("fig13") {
		rows, err := bench.Fig13(*sf)
		if err != nil {
			fatal(fmt.Errorf("fig13: %w", err))
		}
		bench.PrintFigure(os.Stdout, "Figure 13: effect of caching (seconds)", rows)
		bench.PrintSpeedups(os.Stdout, rows)
		allRows = append(allRows, rows...)
	}

	if want("figpar") {
		fmt.Printf("parallel sweep (%s) ...\n", bench.ParallelHostNote())
		rows, err := bench.FigParallel(*sf)
		if err != nil {
			fatal(fmt.Errorf("figpar: %w", err))
		}
		bench.PrintFigure(os.Stdout, "Parallel sweep: morsel workers 1/2/4 (seconds)", rows)
		allRows = append(allRows, rows...)
	}

	if want("vec") {
		fmt.Println("vectorized vs tuple execution sweep ...")
		rows, err := bench.FigVec(*iters)
		if err != nil {
			fatal(fmt.Errorf("vec: %w", err))
		}
		bench.PrintVec(os.Stdout, rows)
		allRows = append(allRows, rows...)
	}

	if want("vec2") {
		fmt.Println("vectorized joins / ORDER BY / string predicates: tuple vs vectorized vs auto sweep ...")
		rows, err := bench.FigVec2(*iters)
		if err != nil {
			fatal(fmt.Errorf("vec2: %w", err))
		}
		bench.PrintVec2(os.Stdout, rows)
		allRows = append(allRows, rows...)
		vec2Rows = rows
	}

	if want("idx") {
		fmt.Println("bitmap index vs compare-kernel sweep ...")
		rows, err := bench.FigIdx(*iters)
		if err != nil {
			fatal(fmt.Errorf("idx: %w", err))
		}
		bench.PrintIdx(os.Stdout, rows)
		allRows = append(allRows, rows...)
	}

	if want("obs") {
		// Standalone observability-overhead experiment: the full v2 stack
		// (profiles, histograms, slow log at 1ns threshold, plan feedback)
		// vs. a bare engine. CI runs this with -obs-budget 1.05.
		fmt.Println("observability v2 overhead sweep ...")
		ratio, err := bench.ObsOverheadV2(*sf, *iters)
		if err != nil {
			fatal(fmt.Errorf("obs: %w", err))
		}
		obsOverhead = ratio
		fmt.Printf("observability v2 overhead: %.3fx (budget < 1.05x)\n\n", ratio)
	}

	if want("fig14") || want("tab3") {
		fmt.Printf("running spam workload (%d JSON objects) ...\n", *spam)
		rep, err := bench.RunSpam(*spam)
		if err != nil {
			fatal(fmt.Errorf("spam workload: %w", err))
		}
		bench.PrintSpam(os.Stdout, rep)
		allRows = append(allRows, rep.Rows...)
	}

	if *raw {
		fmt.Println(strings.TrimSpace(bench.FormatRows(allRows)))
	}
	if *jsonOut != "" {
		if err := writeJSONReport(*jsonOut, *sf, *spam, allRows, phaseRows, obsOverhead); err != nil {
			fatal(fmt.Errorf("writing %s: %w", *jsonOut, err))
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	// The budget gates run last so the JSON artifact is written even on a
	// failing run (CI keeps the evidence).
	if *obsBudget > 0 && obsOverhead > *obsBudget {
		fatal(fmt.Errorf("obs: overhead ratio %.3f exceeds budget %.2f", obsOverhead, *obsBudget))
	}
	if *vec2Tolerance > 0 && len(vec2Rows) > 0 {
		if err := bench.Vec2Gate(vec2Rows, *vec2Tolerance); err != nil {
			fatal(err)
		}
	}
}

// figureSummary is one figure's per-system median runtime.
type figureSummary struct {
	MedianSeconds map[string]float64 `json:"median_seconds_by_system"`
	Rows          int                `json:"rows"`
}

// jsonReport is the machine-readable benchmark artifact.
type jsonReport struct {
	ScaleFactor float64                  `json:"scale_factor"`
	SpamObjects int                      `json:"spam_objects"`
	Figures     map[string]figureSummary `json:"figures"`
	PhaseSplit  []bench.PhaseRow         `json:"phase_split,omitempty"`
	ObsOverhead float64                  `json:"obs_overhead_ratio,omitempty"`
	Rows        []rowJSON                `json:"rows"`
}

// rowJSON mirrors bench.Row with stable JSON field names.
type rowJSON struct {
	Exp     string  `json:"exp"`
	Query   string  `json:"query"`
	System  string  `json:"system"`
	Sel     int     `json:"selectivity_pct"`
	Seconds float64 `json:"seconds"`
}

func writeJSONReport(path string, sf float64, spam int, rows []bench.Row, phases []bench.PhaseRow, overhead float64) error {
	rep := jsonReport{
		ScaleFactor: sf,
		SpamObjects: spam,
		Figures:     map[string]figureSummary{},
		PhaseSplit:  phases,
		ObsOverhead: overhead,
	}
	bySystem := map[string]map[string][]float64{}
	for _, r := range rows {
		rep.Rows = append(rep.Rows, rowJSON{Exp: r.Exp, Query: r.Query, System: r.System, Sel: r.Sel, Seconds: r.Seconds})
		m := bySystem[r.Exp]
		if m == nil {
			m = map[string][]float64{}
			bySystem[r.Exp] = m
		}
		m[r.System] = append(m[r.System], r.Seconds)
	}
	for exp, systems := range bySystem {
		sum := figureSummary{MedianSeconds: map[string]float64{}}
		for sys, times := range systems {
			sort.Float64s(times)
			sum.MedianSeconds[sys] = times[(len(times)-1)/2]
			sum.Rows += len(times)
		}
		rep.Figures[exp] = sum
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchrunner:", err)
	os.Exit(1)
}
