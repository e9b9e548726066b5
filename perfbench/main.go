// Command perfbench is Proteus-Go's benchmark. It generates one workload's
// inputs from a seed, sets the system up, measures a closed loop of queries
// for a fixed time, checks every answer against a serial reference engine,
// and prints the metrics named in BENCHMARK.json; the JSON object on the
// last line of standard output is the machine-readable result.
//
//	go run . --workload warm_mix --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured untraced. With
// --trace 1 it makes a separate traced run for the per-layer metrics: spans
// around calls into each layer's public functions, the engines' own
// counters, and a Chrome trace of the spans written under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// workloads maps each workload name to its set-up, which generates the
// inputs from the seed, builds the system under test and warms it up. Why
// each was chosen, and which layers it loads or bypasses, is recorded in
// BENCHMARK.json and README.md.
var workloads = map[string]func(seed uint64) (fixture, error){
	"spam_session":    setupSpam,
	"warm_mix":        setupWarm,
	"service_mix":     setupService,
	"cluster_scatter": setupCluster,
}

// fixture is a workload that has been set up.
type fixture interface {
	inputs() []input
	callers() int
	// reference computes every answer the timed passes check against.
	reference() error
	// pass runs the query mix once as one caller, checking each answer.
	pass(caller int, rec *recorder, tr *tracer) error
	// layers makes the traced run's own per-layer measurements into m,
	// recording the queries it checks into rec.
	layers(tr *tracer, m metrics, rec *recorder) error
	// stats reads the counters of the engines under test.
	stats() engineStats
	close()
}

type metrics map[string]float64

// setupRepeats is how often a run sets the workload up; setup_s is the
// median, so one slow set-up does not decide the figure.
const setupRepeats = 3

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for reports and traces")
	flag.Parse()
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueOfUnit `json:"metrics"`
}

type valueOfUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run sets the workload up, measures it and checks its answers; it prints
// the text report and saves it under outDir.
func run(name string, seed uint64, seconds time.Duration, traced bool, outDir string) (*result, error) {
	setup := workloads[name]
	if setup == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var (
		fx     fixture
		setups []float64
	)
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if fx != nil {
			fx.close()
			fx = nil
			runtime.GC()
		}
		t0 := time.Now()
		f, err := setup(seed)
		if err != nil {
			return nil, fmt.Errorf("setting up %s: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		fx = f
	}
	defer fx.close()
	if err := fx.reference(); err != nil {
		return nil, fmt.Errorf("computing reference answers: %w", err)
	}

	rep := report{Workload: name, Seed: seed, Seconds: seconds.Seconds(), Traced: traced, Facts: hostFacts(), Inputs: fx.inputs()}
	steal := startSteal()
	var (
		recs []*recorder
		m    metrics
	)
	if traced {
		var err error
		m, recs, err = tracedRun(fx, seconds, &rep, outDir)
		if err != nil {
			return nil, err
		}
	} else {
		var wall time.Duration
		recs, wall = loop(fx, seconds, nil)
		m = endToEnd(recs, wall)
		m["setup_s"] = median(setups)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m["live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
		runtime.KeepAlive(fx)
		rep.Setups = setups
	}

	attempted, failed := 0, 0
	for _, r := range recs {
		attempted += len(r.samples)
		failed += r.failed
		rep.Failures = append(rep.Failures, r.errs...)
	}
	if attempted == 0 {
		return nil, fmt.Errorf("no query finished within %v", seconds)
	}
	rep.Attempted, rep.Failed = attempted, failed
	rep.Metrics = m
	rep.FailedRatio = float64(failed) / float64(attempted)
	rep.CPUSteal = steal.ratio()
	rep.summarize(recs)
	rep.print(os.Stdout)
	if err := rep.save(outDir); err != nil {
		return nil, err
	}

	units := map[string]valueOfUnit{}
	names := endToEndUnits
	if traced {
		names = perLayerUnits()
	}
	for n, u := range names {
		v, ok := m[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		units[n] = valueOfUnit{v, u}
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: units}, nil
}

// sample is one finished query.
type sample struct {
	class string
	lat   time.Duration // call to last byte of the answer
	ttfb  time.Duration // call to first byte; equal to lat in process
	bytes int           // response size on the wire (service only)
}

// recorder collects one caller's samples. A wrong or failed answer is
// counted and never dropped.
type recorder struct {
	samples []sample
	passes  []time.Duration
	failed  int
	errs    []string
}

func (r *recorder) add(s sample, err error) {
	r.samples = append(r.samples, s)
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", s.class, err))
		}
	}
}

// loop runs the closed loop: each caller starts its next pass when the
// previous one returns, until the measured time is over.
func loop(fx fixture, seconds time.Duration, tr *tracer) ([]*recorder, time.Duration) {
	recs := make([]*recorder, fx.callers())
	var wg sync.WaitGroup
	start := time.Now()
	for c := range recs {
		recs[c] = &recorder{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := recs[c]
			for time.Since(start) < seconds {
				t0 := time.Now()
				if err := fx.pass(c, rec, tr); err != nil {
					rec.add(sample{class: "pass"}, err)
					return
				}
				rec.passes = append(rec.passes, time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	return recs, time.Since(start)
}

// endToEnd derives the latency and throughput metrics from the samples.
func endToEnd(recs []*recorder, wall time.Duration) metrics {
	var lat, ttfb, passes []float64
	for _, r := range recs {
		for _, s := range r.samples {
			lat = append(lat, ms(s.lat))
			ttfb = append(ttfb, ms(s.ttfb))
		}
		for _, p := range r.passes {
			passes = append(passes, p.Seconds())
		}
	}
	return metrics{
		"session_s":    median(passes),
		"query_p50_ms": percentile(lat, 50),
		"query_p90_ms": percentile(lat, 90),
		"ttfb_p50_ms":  percentile(ttfb, 50),
		"qps":          float64(len(lat)) / wall.Seconds(),
	}
}

// endToEndUnits are the metrics of an untraced run (BENCHMARK.json's
// end_to_end list).
var endToEndUnits = map[string]string{
	"setup_s":      "s",
	"session_s":    "s",
	"query_p50_ms": "ms",
	"query_p90_ms": "ms",
	"qps":          "1/s",
	"ttfb_p50_ms":  "ms",
	"live_heap_mb": "MB",
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(v []float64) float64 { return percentile(v, 50) }

// percentile interpolates linearly between the closest ranks.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
