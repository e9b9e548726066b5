// Command proteus is an interactive / one-shot query runner: register
// datasets with flags, then run SQL or comprehension queries against them.
//
// Usage:
//
//	proteus -csv sales=data/sales.csv -json events=data/events.json \
//	        -q "SELECT COUNT(*) FROM sales s JOIN events e ON s.id = e.sid"
//
// Without -q it reads queries from stdin, one per line; lines starting with
// "for" are parsed as comprehensions. Dot commands: ".explain <query>"
// prints the plan, ".explain analyze <query>" runs the query with full
// per-operator instrumentation, ".profile" shows the most recent query
// profile, ".trace [id] [file]" exports a profile as Chrome trace-event
// JSON (Perfetto-loadable), ".slow" prints the slow-query log, ".plans"
// prints per-plan runtime feedback, ".metrics" dumps cumulative engine
// metrics, and ".caches" prints cache statistics. The -obs flag records a
// profile for every query, -slow-query sets the slow-log threshold
// (-slow-log appends JSONL records to a file), -trace-morsels samples
// per-morsel trace events, and -metrics ADDR serves /metrics, /debug/vars,
// /debug/trace, /debug/slow, /debug/plans, and /debug/pprof over HTTP.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"proteus"
)

type pairs []string

func (p *pairs) String() string     { return strings.Join(*p, ",") }
func (p *pairs) Set(v string) error { *p = append(*p, v); return nil }

func main() {
	var csvs, jsons, bins pairs
	flag.Var(&csvs, "csv", "register CSV dataset: name=path (repeatable)")
	flag.Var(&jsons, "json", "register JSON dataset: name=path (repeatable)")
	flag.Var(&bins, "bin", "register binary dataset: name=path (repeatable)")
	query := flag.String("q", "", "one-shot query (SQL, or a comprehension starting with 'for')")
	caching := flag.Bool("cache", true, "enable adaptive caching")
	header := flag.Bool("header", false, "CSV files start with a header row")
	par := flag.Int("par", 0, "morsel-parallel workers per query (0 = GOMAXPROCS, 1 = serial)")
	obsOn := flag.Bool("obs", false, "record a profile for every query (.profile shows the latest)")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /debug/vars, /debug/pprof on this address (e.g. localhost:6060)")
	profileRing := flag.Int("profile-ring", 0, "retained recent-query profiles (0 = default 32)")
	slowQuery := flag.Duration("slow-query", 0, "slow-query log threshold; queries at or above it are recorded (.slow, /debug/slow; 0 = off)")
	slowLog := flag.String("slow-log", "", "append slow-query records as JSON lines to this file")
	traceMorsels := flag.Int("trace-morsels", 0, "record per-morsel trace events on every Nth observed query (0 = off)")
	timeout := flag.Duration("timeout", 0, "per-query wall-time limit (0 = none)")
	memBudget := flag.Int64("mem-budget", 0, "per-query operator-state byte budget (0 = unlimited)")
	maxQueries := flag.Int("max-queries", 0, "maximum concurrent queries (0 = unlimited)")
	vectorized := flag.String("vectorized", "auto", "execution mode for eligible segments: auto, on, or off")
	indexes := flag.String("indexes", "auto", "bitmap indexes over cached columns: auto, on, or off")
	planCache := flag.Int("plan-cache", 0, "compiled-plan cache entries (0 = default 64, negative disables)")
	flag.Parse()

	var vecMode proteus.VecMode
	switch *vectorized {
	case "auto":
		vecMode = proteus.VectorizedAuto
	case "on":
		vecMode = proteus.VectorizedOn
	case "off":
		vecMode = proteus.VectorizedOff
	default:
		fatalf("bad -vectorized value %q, want auto, on, or off", *vectorized)
	}

	var idxMode proteus.IndexMode
	switch *indexes {
	case "auto":
		idxMode = proteus.IndexesAuto
	case "on":
		idxMode = proteus.IndexesOn
	case "off":
		idxMode = proteus.IndexesOff
	default:
		fatalf("bad -indexes value %q, want auto, on, or off", *indexes)
	}

	var slowSink *os.File
	if *slowLog != "" {
		var err error
		slowSink, err = os.OpenFile(*slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatalf("opening -slow-log file: %v", err)
		}
		defer slowSink.Close()
		if *slowQuery == 0 {
			fatalf("-slow-log requires -slow-query to set the threshold")
		}
	}

	cfg := proteus.Config{
		CacheEnabled:    *caching,
		Indexes:         idxMode,
		Parallelism:     *par,
		Observability:   *obsOn,
		ProfileRingSize: *profileRing,

		SlowQueryThreshold: *slowQuery,
		TraceMorsels:       *traceMorsels,

		QueryTimeout:         *timeout,
		QueryMemBudget:       *memBudget,
		MaxConcurrentQueries: *maxQueries,

		Vectorized:    vecMode,
		PlanCacheSize: *planCache,
	}
	if slowSink != nil {
		cfg.SlowQueryWriter = slowSink
	}
	db := proteus.Open(cfg)

	// Ctrl-C cancels the running query, not the REPL: the handler below
	// forwards the signal to the active query's context. A second Ctrl-C
	// while idle is harmless (the buffered stdin read restarts).
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	if *metricsAddr != "" {
		// Bind synchronously so a bad address (in use, unresolvable) fails
		// startup instead of printing "serving metrics" and then losing the
		// error to stderr from a goroutine.
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatalf("metrics listener: %v", err)
		}
		metricsSrv := &http.Server{
			Handler:           db.MetricsHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := metricsSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "metrics listener:", err)
			}
		}()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = metricsSrv.Shutdown(ctx)
		}()
		fmt.Printf("serving metrics on http://%s/metrics\n", ln.Addr())
	}
	register := func(list pairs, kind string) {
		for _, spec := range list {
			name, path, ok := strings.Cut(spec, "=")
			if !ok {
				fatalf("bad -%s value %q, want name=path", kind, spec)
			}
			var err error
			switch kind {
			case "csv":
				err = db.RegisterCSV(name, path, nil, proteus.CSVOptions{Header: *header})
			case "json":
				err = db.RegisterJSON(name, path)
			case "bin":
				err = db.RegisterBinary(name, path)
			}
			if err != nil {
				fatalf("registering %s: %v", name, err)
			}
			fmt.Printf("registered %s (%s)\n", name, kind)
		}
	}
	register(csvs, "csv")
	register(jsons, "json")
	register(bins, "bin")

	if *query != "" {
		runQuery(db, *query, sigc)
		return
	}
	fmt.Println("proteus> enter queries (SQL or 'for {...} yield ...'); .explain [analyze] <query>, .profile, .trace [id] [file], .slow, .plans, .metrics, .caches, .quit")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("proteus> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == ".quit" || line == ".exit":
			return
		case line == ".caches":
			s := db.CacheStats()
			fmt.Printf("blocks=%d join_sides=%d bytes=%d hits=%d misses=%d evictions=%d build_time=%v\n",
				s.Blocks, s.JoinSides, s.Bytes, s.Hits, s.Misses, s.Evictions,
				time.Duration(s.BuildNanos).Round(time.Microsecond))
			fmt.Printf("indexes=%d index_bytes=%d index_builds=%d index_hits=%d zone_skips=%d\n",
				s.Indexes, s.IndexBytes, s.IndexBuilds, s.IndexHits, s.ZoneSkips)
		case line == ".metrics":
			out, err := json.MarshalIndent(db.Metrics(), "", "  ")
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(string(out))
		case line == ".profile":
			profs := db.RecentProfiles()
			if len(profs) == 0 {
				fmt.Println("no profiles recorded (run with -obs, or use .explain analyze <query>)")
				continue
			}
			fmt.Print(proteus.RenderProfile(profs[0]))
		case line == ".trace" || strings.HasPrefix(line, ".trace "):
			traceCmd(db, strings.TrimSpace(strings.TrimPrefix(line, ".trace")))
		case line == ".slow":
			slow := db.SlowQueries()
			if len(slow) == 0 {
				fmt.Println("no slow queries recorded (run with -slow-query <threshold>)")
				continue
			}
			for _, s := range slow {
				fmt.Print(proteus.RenderSlowQuery(s))
			}
		case line == ".plans":
			plans := db.PlanFeedback()
			if len(plans) == 0 {
				fmt.Println("no plan feedback recorded yet")
				continue
			}
			for _, p := range plans {
				fmt.Printf("%s  execs=%d errs=%d rows=%d mean=%v stddev=%v\n",
					p.Fingerprint, p.Executions, p.Errors, p.Rows,
					time.Duration(p.MeanNanos).Round(time.Microsecond),
					time.Duration(p.StddevNanos).Round(time.Microsecond))
				fmt.Printf("    %s\n", p.Query)
				if p.Mode != "" {
					fmt.Printf("    mode: %s (%s)\n", p.Mode, p.ModeSource)
				}
			}
		case strings.HasPrefix(line, ".explain analyze "):
			out, err := db.ExplainAnalyze(strings.TrimPrefix(line, ".explain analyze "))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(out)
		case strings.HasPrefix(line, ".explain "):
			q := strings.TrimPrefix(line, ".explain ")
			plan, err := db.Explain(q)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(plan)
		default:
			runQuery(db, line, sigc)
		}
	}
}

// traceCmd implements ".trace [id] [file]": export a retained profile as
// Chrome trace-event JSON, to stdout or to a file for loading in Perfetto.
func traceCmd(db *proteus.DB, rest string) {
	var id int64
	var file string
	if rest != "" {
		fields := strings.Fields(rest)
		if n, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
			id = n
			fields = fields[1:]
		}
		if len(fields) > 0 {
			file = fields[0]
		}
	}
	data, ok := db.TraceJSON(id)
	if !ok {
		fmt.Println("no matching profile (run with -obs, or use .explain analyze <query>)")
		return
	}
	if file == "" {
		fmt.Println(string(data))
		return
	}
	if err := os.WriteFile(file, data, 0o644); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("wrote %d bytes to %s (load in ui.perfetto.dev or chrome://tracing)\n", len(data), file)
}

func runQuery(db *proteus.DB, q string, sigc <-chan os.Signal) {
	// Drop any Ctrl-C delivered while idle so it can't cancel this query
	// before it starts.
	select {
	case <-sigc:
	default:
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		select {
		case <-sigc:
			fmt.Println("\n^C cancelling query...")
			cancel()
		case <-done:
		}
	}()
	start := time.Now()
	res, err := db.QueryContext(ctx, q)
	close(done)
	cancel()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for i, row := range res.Rows {
		if i >= 25 {
			fmt.Printf("... (%d rows total)\n", len(res.Rows))
			break
		}
		fmt.Println(row)
	}
	fmt.Printf("-- %d row(s) in %v\n", len(res.Rows), time.Since(start).Round(time.Microsecond))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
