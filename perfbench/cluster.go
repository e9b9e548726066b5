package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"proteus"
	"proteus/internal/engine"
	"proteus/internal/exec"
	"proteus/internal/plugin"
)

// clusterSF sizes cluster_scatter: TPC-H SF 0.05, about 300k lineitems.
const clusterSF = 0.05

// clusterFixture is a coordinator and two worker services on loopback,
// every node serial (Parallelism 1) with the same datasets registered, as
// proteusd nodes would be. One in-process caller queries the coordinator.
type clusterFixture struct {
	data    []input
	workers []*node
	coord   *proteus.DB
	client  *http.Client
	qs      []query
	ref     map[string]*table
	qid     int64
}

func nodeConfig() proteus.Config { return proteus.Config{CacheEnabled: true, Parallelism: 1} }

// clusterQueries are GROUP BYs and aggregates whose driving scan
// partitions and whose partial state the fragment codec carries, so the
// coordinator scatters each of them. With two CSV and two binary queries
// around the JSON one, the median latency falls inside one class rather
// than in the gap between two.
var clusterQueries = []query{
	{class: "csv_group", text: "SELECT l_linenumber, COUNT(*), SUM(l_extendedprice) FROM lineitem_csv GROUP BY l_linenumber", touches: []string{"lineitem_csv"}},
	{class: "csv_agg", text: "SELECT COUNT(*), SUM(l_quantity), MIN(l_discount) FROM lineitem_csv WHERE l_tax < 0.04", touches: []string{"lineitem_csv"}},
	{class: "json_group", text: "SELECT l_linenumber, COUNT(*), MAX(l_quantity) FROM lineitem_json GROUP BY l_linenumber", touches: []string{"lineitem_json"}},
	{class: "bin_group", text: "SELECT l_quantity, COUNT(*), SUM(l_discount) FROM lineitem_bin GROUP BY l_quantity", touches: []string{"lineitem_bin"}},
	{class: "bin_agg", text: "SELECT COUNT(*), MIN(l_extendedprice), MAX(l_extendedprice), AVG(l_tax) FROM lineitem_bin WHERE l_discount < 0.05", touches: []string{"lineitem_bin"}},
}

func setupCluster(seed uint64) (fixture, error) {
	t := genTPCH(seed, clusterSF)
	f := &clusterFixture{data: tpchInputs(t, "csv", "json", "bin"), qs: clusterQueries, client: newClient()}
	var urls []string
	for i := 0; i < 2; i++ {
		n, err := startNode(nodeConfig(), f.data)
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, n)
		urls = append(urls, n.url)
	}
	cfg := nodeConfig()
	cfg.ClusterWorkers = urls
	f.coord = proteus.Open(cfg)
	if _, err := register(f.coord.Engine(), f.data); err != nil {
		f.close()
		return nil, err
	}
	for i := 0; i < 2; i++ {
		for _, q := range f.qs {
			if _, err := runQuery(f.coord.Engine(), q.text); err != nil {
				f.close()
				return nil, err
			}
		}
	}
	return f, nil
}

func (f *clusterFixture) inputs() []input { return f.data }
func (f *clusterFixture) callers() int    { return 1 }

func (f *clusterFixture) stats() engineStats {
	s := statsOf(f.coord.Engine())
	for _, w := range f.workers {
		s = s.plus(statsOf(w.db.Engine()))
	}
	s.cluster = true
	return s
}

func (f *clusterFixture) close() {
	if f.coord != nil {
		_ = f.coord.Close(context.Background()) // the caller has returned; nothing is in flight
	}
	for _, w := range f.workers {
		w.stop()
	}
	f.client.CloseIdleConnections()
}

func (f *clusterFixture) reference() (err error) {
	f.ref, err = referenceAnswers(f.data, f.qs)
	return err
}

func (f *clusterFixture) pass(caller int, rec *recorder, tr *tracer) error {
	for _, q := range f.qs {
		f.qid++
		checked(f.coord.Engine(), q, f.ref, rec, tr, caller, f.qid)
	}
	return nil
}

func (f *clusterFixture) layers(tr *tracer, m metrics, rec *recorder) error {
	if err := coldPass(engine.Config{CacheEnabled: true, Parallelism: 1}, f.data, f.qs, f.ref, m, rec); err != nil {
		return err
	}
	splitPasses(tr, f.coord.Engine(), f.qs, f.ref, 2, m, rec, &f.qid)
	if err := f.fragments(tr, m); err != nil {
		return err
	}
	return f.localRatio(tr, m, rec)
}

// fragments posts each query's first morsel straight to one worker's
// /v1/fragment and decodes the partial state the way the coordinator does.
func (f *clusterFixture) fragments(tr *tracer, m metrics) error {
	e := f.coord.Engine()
	var took, decode, kb []float64
	for rep := 0; rep < 3; rep++ {
		for _, q := range f.qs {
			ds, in, err := e.Dataset(q.touches[0])
			if err != nil {
				return err
			}
			morsels, err := in.(plugin.Partitioner).PartitionScan(ds, len(f.workers))
			if err != nil {
				return err
			}
			// Strings and ints always marshal. An empty fingerprint skips
			// the worker's plan check, which only a coordinator needs.
			body, _ := json.Marshal(map[string]any{"lang": engine.LangSQL, "query": q.text, "start": morsels[0].Start, "end": morsels[0].End})
			f.qid++
			root := tr.begin("cluster.fragment:"+q.class, spanRef{}, f.qid, 0)
			t0 := time.Now()
			resp, err := f.client.Post(f.workers[0].url+"/v1/fragment", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			frame, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			took = append(took, ms(time.Since(t0)))
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("fragment %s: %s: %s", q.class, resp.Status, frame)
			}
			sp := tr.begin("exec.decode_partial", root, f.qid, 0)
			t1 := time.Now()
			_, err = exec.DecodePartialStream(bytes.NewReader(frame))
			decode = append(decode, float64(time.Since(t1).Nanoseconds())/1e3)
			sp.end()
			root.end()
			if err != nil {
				return err
			}
			kb = append(kb, float64(len(frame))/1024)
		}
	}
	m["cluster.fragment_ms"] = median(took)
	m["cluster.decode_us"] = median(decode)
	m["cluster.fragment_kb"] = median(kb)
	return nil
}

// localRatio times each query on the coordinator against the same query
// on a warm local engine with as many workers as the cluster has nodes'
// cores in use (Parallelism 2), alternating the two.
func (f *clusterFixture) localRatio(tr *tracer, m metrics, rec *recorder) error {
	local := engine.New(engine.Config{CacheEnabled: true, Parallelism: 2})
	if _, err := register(local, f.data); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		for _, q := range f.qs {
			if _, err := runQuery(local, q.text); err != nil {
				return err
			}
		}
	}
	var coord, loc time.Duration
	for rep := 0; rep < 3; rep++ {
		for _, q := range f.qs {
			for _, e := range []*engine.Engine{f.coord.Engine(), local} {
				f.qid++
				before := len(rec.samples)
				checked(e, q, f.ref, rec, tr, 0, f.qid)
				if e == local {
					loc += rec.samples[before].lat
				} else {
					coord += rec.samples[before].lat
				}
			}
		}
	}
	m["cluster.local_ratio"] = float64(coord) / float64(loc)
	return nil
}
