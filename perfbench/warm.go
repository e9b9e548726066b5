package main

import (
	"fmt"

	"proteus/internal/engine"
)

// warmSF sizes warm_mix: TPC-H SF 0.1, about 600k lineitems.
const warmSF = 0.1

// warmFixture is one caller running a fixed analytic mix over TPC-H data
// registered as JSON, CSV and binary, after warm-up has filled the caches,
// the plan cache and the adaptive mode decisions.
type warmFixture struct {
	data []input
	qs   []query
	ref  map[string]*table
	e    *engine.Engine
	qid  int64
}

func warmConfig() engine.Config { return engine.Config{CacheEnabled: true} }

// warmQueries is the mix. The point predicate repeats one l_orderkey, a
// cached CSV column with far more than 4096 distinct values; it runs twice
// per pass, as a dashboard re-issuing a lookup would.
func warmQueries(key int64) []query {
	li := func(f string) []string { return []string{"lineitem_" + f} }
	point := query{class: "point", text: fmt.Sprintf("SELECT COUNT(*), SUM(l_quantity) FROM lineitem_csv WHERE l_orderkey = %d", key), touches: li("csv")}
	return []query{
		point,
		{class: "json_select", text: "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem_json WHERE l_quantity < 2", touches: li("json")},
		{class: "csv_select", text: "SELECT COUNT(*), SUM(l_quantity), MAX(l_extendedprice) FROM lineitem_csv WHERE l_discount < 0.02 AND l_tax > 0.05", touches: li("csv")},
		{class: "bin_group", text: "SELECT l_linenumber, COUNT(*), SUM(l_quantity), AVG(l_extendedprice) FROM lineitem_bin GROUP BY l_linenumber", touches: li("bin")},
		{class: "bin_join", text: "SELECT COUNT(*) FROM orders_bin o JOIN lineitem_bin l ON o.o_orderkey = l.l_orderkey", touches: []string{"orders_bin", "lineitem_bin"}},
		{class: "order_limit", text: "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem_bin ORDER BY l_extendedprice DESC LIMIT 10", keys: []int{2}, touches: li("bin")},
		point,
	}
}

// tpchInputs renders the tables each workload registers.
func tpchInputs(t *tpch, formats ...string) []input {
	var ins []input
	for _, f := range formats {
		ins = append(ins, tpchInput("lineitem_"+f, f, t.lineitem, t.liRows, lineitemSchema))
	}
	return append(ins, tpchInput("orders_bin", "bin", t.orders, t.ordRows, nil))
}

func setupWarm(seed uint64) (fixture, error) {
	t := genTPCH(seed, warmSF)
	f := &warmFixture{
		data: tpchInputs(t, "json", "csv", "bin"),
		qs:   warmQueries(1 + newRng(seed).intn(int64(t.ordRows))),
		e:    engine.New(warmConfig()),
	}
	if _, err := register(f.e, f.data); err != nil {
		return nil, err
	}
	// Two passes: the first caches the raw columns and compiles cache-aware
	// plans, the second lets adaptive mode explore; by its end the point
	// predicate has had the three warm scans that make its column hot.
	for i := 0; i < 2; i++ {
		for _, q := range f.qs {
			if _, err := runQuery(f.e, q.text); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

func (f *warmFixture) inputs() []input    { return f.data }
func (f *warmFixture) callers() int       { return 1 }
func (f *warmFixture) close()             {}
func (f *warmFixture) stats() engineStats { return statsOf(f.e) }

func (f *warmFixture) reference() (err error) {
	f.ref, err = referenceAnswers(f.data, f.qs)
	return err
}

func (f *warmFixture) pass(caller int, rec *recorder, tr *tracer) error {
	for _, q := range f.qs {
		f.qid++
		checked(f.e, q, f.ref, rec, tr, caller, f.qid)
	}
	return nil
}

func (f *warmFixture) layers(tr *tracer, m metrics, rec *recorder) error {
	if err := coldPass(warmConfig(), f.data, f.qs, f.ref, m, rec); err != nil {
		return err
	}
	splitPasses(tr, f.e, f.qs, f.ref, 2, m, rec, &f.qid)
	return nil
}
