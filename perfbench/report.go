package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// report is everything one run measured, printed as text and saved as
// JSON under --out.
type report struct {
	Workload    string               `json:"workload"`
	Seed        uint64               `json:"seed"`
	Seconds     float64              `json:"seconds"`
	Traced      bool                 `json:"traced"`
	Facts       facts                `json:"host"`
	Inputs      []input              `json:"inputs"`
	Setups      []float64            `json:"setup_s_each,omitempty"`
	CPUSteal    float64              `json:"cpu_steal_ratio"` // while measuring
	Attempted   int                  `json:"attempted"`
	Failed      int                  `json:"failed"`
	FailedRatio float64              `json:"failed_ratio"`
	Failures    []string             `json:"failures,omitempty"`
	Classes     map[string]classStat `json:"classes"`
	Samples     int                  `json:"samples"`
	P99         float64              `json:"query_p99_ms"`
	BeyondP99   int                  `json:"samples_beyond_p99"`
	Metrics     metrics              `json:"metrics"`
	Layers      []layerRow           `json:"layers,omitempty"`
	TraceFile   string               `json:"trace_file,omitempty"`
}

// facts describe the host and the code measured.
type facts struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostFacts() facts {
	return facts{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit()}
}

// commit names the code under test: the VCS revision stamped into the
// binary when it was built inside a git checkout, otherwise a digest of the
// Go sources under the working directory.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		vcs := map[string]string{}
		for _, s := range info.Settings {
			vcs[s.Key] = s.Value
		}
		if rev := vcs["vcs.revision"]; rev != "" {
			if vcs["vcs.modified"] == "true" {
				rev += "+modified"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTimes reads the host's cumulative CPU time and the part of it the
// hypervisor gave to other guests (steal), in clock ticks; ok is false
// where /proc/stat is missing.
func cpuTimes() (total, steal uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealMeter measures the share of CPU time stolen from this machine while
// it runs; a busy host shows up here rather than only as slower queries.
type stealMeter struct{ total, steal uint64 }

func startSteal() stealMeter {
	t, s, _ := cpuTimes()
	return stealMeter{t, s}
}

// ratio is the stolen share since start (0 when unreadable).
func (m stealMeter) ratio() float64 {
	t, s, ok := cpuTimes()
	if !ok || t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// classStat is the latency of one query class.
type classStat struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
}

// summarize fills the per-class latencies and the p99, which needs at least
// 1000 samples to leave ten beyond it; it is reported with that count so a
// short run's tail is not over-read.
func (r *report) summarize(recs []*recorder) {
	byClass := map[string][]float64{}
	var all []float64
	for _, rec := range recs {
		for _, s := range rec.samples {
			byClass[s.class] = append(byClass[s.class], ms(s.lat))
			all = append(all, ms(s.lat))
		}
	}
	r.Classes = map[string]classStat{}
	for c, v := range byClass {
		r.Classes[c] = classStat{len(v), percentile(v, 50), percentile(v, 90)}
	}
	r.Samples, r.P99 = len(all), percentile(all, 99)
	r.BeyondP99 = len(all) - int(float64(len(all))*0.99+0.5)
}

func (r *report) print(w io.Writer) {
	f := r.Facts
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g traced=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(w, "# host: GOMAXPROCS=%d NumCPU=%d %s commit=%s cpu_steal=%.3f\n", f.GOMAXPROCS, f.NumCPU, f.GoVersion, f.Commit, r.CPUSteal)
	for _, in := range r.Inputs {
		fmt.Fprintf(w, "# input %-14s %-4s rows=%-9d bytes=%d\n", in.Name, in.Format, in.Rows, in.Bytes)
	}
	classes := make([]string, 0, len(r.Classes))
	for c := range r.Classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		s := r.Classes[c]
		fmt.Fprintf(w, "# class %-14s n=%-6d p50=%.3fms p90=%.3fms\n", c, s.N, s.P50, s.P90)
	}
	fmt.Fprintf(w, "# samples=%d query_p99_ms=%.3f (samples beyond p99: %d)\n", r.Samples, r.P99, r.BeyondP99)
	fmt.Fprintf(w, "# attempted=%d failed=%d failed_ratio=%g\n", r.Attempted, r.Failed, r.FailedRatio)
	for _, e := range r.Failures {
		fmt.Fprintf(w, "# FAILED %s\n", e)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	units := perLayerUnits()
	for n, u := range endToEndUnits {
		units[n] = u
	}
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, r.Metrics[n], units[n])
	}
	if len(r.Layers) > 0 {
		fmt.Fprint(w, formatLayers(r.Layers))
		fmt.Fprintf(w, "# chrome trace: %s\n", r.TraceFile)
	}
}

func (r *report) save(dir string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	kind := "e2e"
	if r.Traced {
		kind = "trace"
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", r.Workload, r.Seed, kind)), data, 0o644)
}
