package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"proteus"
	"proteus/internal/engine"
	"proteus/internal/server"
)

const (
	// serviceSF sizes service_mix: TPC-H SF 0.05, about 300k lineitems.
	serviceSF = 0.05
	// serviceCacheBudget is below the roughly 20 MB of columns the mix
	// caches, so blocks are evicted and rebuilt while the clients run.
	serviceCacheBudget = 12 << 20
	// serviceKeys is how many distinct point-lookup keys the clients cycle.
	serviceKeys = 32
)

// node is one in-process query service on a loopback listener.
type node struct {
	db   *proteus.DB
	svc  *server.Server
	http *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

// startNode opens a DB, registers the inputs and serves it on 127.0.0.1.
func startNode(cfg proteus.Config, ins []input) (*node, error) {
	n := &node{db: proteus.Open(cfg), done: make(chan struct{})}
	if _, err := register(n.db.Engine(), ins); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.svc = server.New(server.Config{DB: n.db})
	n.http = &http.Server{Handler: n.svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	n.url = "http://" + ln.Addr().String()
	go func() {
		defer close(n.done)
		n.http.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return n, nil
}

// stop shuts the listener down, drains the engine and waits for Serve.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// The callers have returned, so nothing is in flight that could make
	// the drain time out.
	_ = n.http.Shutdown(ctx)
	_ = n.svc.Close(ctx)
	<-n.done
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: 60 * time.Second}
}

// serviceFixture is two closed-loop HTTP clients posting /v1/query to one
// service configured as proteusd serves by default (caching and profiles
// on), with admission gated to one running query and a cache budget below
// the working set.
type serviceFixture struct {
	data    []input
	n       *node
	client  *http.Client
	points  []query // one per key
	others  []query // group-bys, the stream and the prepared statements
	handles map[string]string
	ref     map[string]*table
	seed    uint64
	qid     atomic.Int64
}

func serviceConfig() proteus.Config {
	return proteus.Config{CacheEnabled: true, CacheBudget: serviceCacheBudget, Observability: true, MaxConcurrentQueries: 1}
}

// serviceEngineConfig is serviceConfig for an engine built directly.
func serviceEngineConfig() engine.Config {
	c := serviceConfig()
	return engine.Config{CacheEnabled: c.CacheEnabled, CacheBudget: c.CacheBudget, Observability: c.Observability, MaxConcurrentQueries: c.MaxConcurrentQueries}
}

func setupService(seed uint64) (fixture, error) { return newService(seed, serviceSF) }

func newService(seed uint64, sf float64) (*serviceFixture, error) {
	t := genTPCH(seed, sf)
	f := &serviceFixture{data: append(tpchInputs(t, "csv", "json", "bin"), tpchInput("orders_csv", "csv", t.orders, t.ordRows, ordersSchema)), handles: map[string]string{}, seed: seed}
	r := newRng(seed)
	for i := 0; i < serviceKeys; i++ {
		f.points = append(f.points, query{class: "point", touches: []string{"orders_csv"},
			text: fmt.Sprintf("SELECT o_orderkey, o_custkey, o_totalprice FROM orders_csv WHERE o_orderkey = %d", 1+r.intn(int64(t.ordRows)))})
	}
	f.others = []query{
		{class: "csv_group", text: "SELECT l_linenumber, COUNT(*), SUM(l_quantity) FROM lineitem_csv GROUP BY l_linenumber", touches: []string{"lineitem_csv"}},
		{class: "json_group", text: "SELECT l_linenumber, SUM(l_extendedprice) FROM lineitem_json WHERE l_discount < 0.05 GROUP BY l_linenumber", touches: []string{"lineitem_json"}},
		// l_suppkey is uniform on 1..10000, so this streams about 10k rows.
		{class: "stream", text: "SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice FROM lineitem_bin WHERE l_suppkey <= 333", touches: []string{"lineitem_bin"}},
		{class: "prepared", text: "SELECT l_quantity, COUNT(*), MAX(l_extendedprice) FROM lineitem_csv WHERE l_tax < 0.04 GROUP BY l_quantity", touches: []string{"lineitem_csv"}},
		{class: "prepared", text: "SELECT COUNT(*), AVG(l_quantity) FROM lineitem_json WHERE l_extendedprice < 20000.0", touches: []string{"lineitem_json"}},
	}
	var err error
	if f.n, err = startNode(serviceConfig(), f.data); err != nil {
		return nil, err
	}
	f.client = newClient()
	for _, q := range f.others {
		if q.class == "prepared" {
			var st struct{ Handle string }
			if err := f.post("/v1/prepare", map[string]string{"query": q.text}, &st); err != nil {
				f.close()
				return nil, err
			}
			f.handles[q.text] = st.Handle
		}
	}
	// Warm-up: every statement twice, so caches and compiled plans exist.
	for i := 0; i < 2; i++ {
		for _, q := range f.all() {
			if _, _, err := f.request(q, nil, spanRef{}, 0, 0); err != nil {
				f.close()
				return nil, err
			}
		}
	}
	return f, nil
}

func (f *serviceFixture) all() []query { return append(append([]query(nil), f.points...), f.others...) }

func (f *serviceFixture) inputs() []input    { return f.data }
func (f *serviceFixture) callers() int       { return 2 }
func (f *serviceFixture) stats() engineStats { return statsOf(f.n.db.Engine()) }

func (f *serviceFixture) close() {
	f.n.stop()
	f.client.CloseIdleConnections()
}

func (f *serviceFixture) reference() (err error) {
	f.ref, err = referenceAnswers(f.data, f.all())
	return err
}

// post sends a JSON body and decodes a JSON answer.
func (f *serviceFixture) post(path string, body any, out any) error {
	data, _ := json.Marshal(body) // maps of strings always marshal
	resp, err := f.client.Post(f.n.url+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, msg)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// request posts one query (by handle for prepared statements) and reads
// the NDJSON answer, timing the first and the last byte.
func (f *serviceFixture) request(q query, tr *tracer, parent spanRef, qid int64, caller int) (*table, sample, error) {
	body := map[string]string{"query": q.text}
	if h, ok := f.handles[q.text]; ok {
		body = map[string]string{"handle": h}
	}
	data, _ := json.Marshal(body) // maps of strings always marshal
	s := sample{class: q.class}
	t0 := time.Now()
	resp, err := f.client.Post(f.n.url+"/v1/query", "application/json", bytes.NewReader(data))
	if err != nil {
		s.lat, s.ttfb = time.Since(t0), time.Since(t0)
		return nil, s, err
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	_, err = br.Peek(1)
	s.ttfb = time.Since(t0)
	if err == nil && resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(br)
		err = fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	if err != nil {
		s.lat = time.Since(t0)
		return nil, s, err
	}
	// Read to the last byte before decoding, so the latency is the
	// service's and not the checker's.
	answer, err := io.ReadAll(br)
	s.lat = time.Since(t0)
	s.bytes = len(answer)
	tr.record("server.ttfb", parent, qid, caller, t0, s.ttfb)
	tr.record("server.stream", parent, qid, caller, t0.Add(s.ttfb), s.lat-s.ttfb)
	if err != nil {
		return nil, s, err
	}
	got, err := readNDJSON(bytes.NewReader(answer))
	return got, s, err
}

// mix is one client's requests in its p-th pass: six point lookups on
// rotating keys, the two GROUP BYs, the stream and the two prepared
// executions, in an order shuffled per client and pass. With half the
// requests point lookups, the median falls inside their latencies rather
// than at the edge between two classes. The shuffle keeps the two clients
// from running their mixes in a fixed phase, which would decide how long
// each request waits for admission behind the other client's.
func (f *serviceFixture) mix(caller, p int) []query {
	var qs []query
	for i := 0; i < 6; i++ {
		qs = append(qs, f.points[(caller*7+p*6+i)%len(f.points)])
	}
	qs = append(qs, f.others...)
	r := newRng(f.seed ^ uint64(caller)<<32 ^ uint64(p))
	for i := len(qs) - 1; i > 0; i-- {
		j := r.intn(int64(i + 1))
		qs[i], qs[j] = qs[j], qs[i]
	}
	return qs
}

func (f *serviceFixture) pass(caller int, rec *recorder, tr *tracer) error {
	for _, q := range f.mix(caller, len(rec.passes)) {
		qid := f.qid.Add(1)
		root := tr.begin("server.request:"+q.class, spanRef{}, qid, caller)
		got, s, err := f.request(q, tr, root, qid, caller)
		root.end()
		if err == nil {
			err = compare(f.ref[q.text], got, q.keys, true)
		}
		rec.add(s, err)
	}
	return nil
}

func (f *serviceFixture) layers(tr *tracer, m metrics, rec *recorder) error {
	var qid int64 = 1 << 40 // distinct from the request ids
	qs := f.mix(0, 0)
	if err := coldPass(serviceEngineConfig(), f.data, qs, f.ref, m, rec); err != nil {
		return err
	}
	splitPasses(tr, f.n.db.Engine(), qs, f.ref, 2, m, rec, &qid)
	return nil
}
