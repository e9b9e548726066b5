package main

import (
	"strings"
	"sync"

	"proteus/internal/bench"
	"proteus/internal/engine"
)

// spamObjects sizes spam_session: 50k JSON objects (700k CSV rows, 900k
// binary rows) make one session last about 1.5 s on a 2-CPU host.
const spamObjects = 50_000

// spamFixture runs the paper's heterogeneous session (§7.2, Figure 14):
// Q1–Q50 in order, each session on a fresh engine with caching on and the
// raw files registered in situ, so every query misses the plan cache and
// each format is parsed, indexed and cached on first touch.
type spamFixture struct {
	data []input
	qs   []query
	ref  map[string]*table

	mu  sync.Mutex
	acc engineStats // counters summed over finished sessions
	qid int64
}

func spamConfig() engine.Config { return engine.Config{CacheEnabled: true} }

func setupSpam(seed uint64) (fixture, error) {
	f := &spamFixture{data: genSpam(seed, spamObjects)}
	for _, q := range bench.SpamQueries(spamObjects) {
		class := strings.ReplaceAll(strings.Join(q.Touches, "_"), "spam_", "")
		f.qs = append(f.qs, query{class: class, text: q.Text, touches: q.Touches})
	}
	// Warm-up: one session, so the timed ones find the Go runtime's heap
	// and code paths as later sessions do.
	e := engine.New(spamConfig())
	if _, err := register(e, f.data); err != nil {
		return nil, err
	}
	for _, q := range f.qs {
		if _, err := runQuery(e, q.text); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (f *spamFixture) inputs() []input { return f.data }
func (f *spamFixture) callers() int    { return 1 }
func (f *spamFixture) close()          {}

func (f *spamFixture) reference() (err error) {
	f.ref, err = referenceAnswers(f.data, f.qs)
	return err
}

// pass is one session: open an engine, register the raw files, run Q1–Q50.
func (f *spamFixture) pass(caller int, rec *recorder, tr *tracer) error {
	sp := tr.begin("session", spanRef{}, 0, caller)
	e := engine.New(spamConfig())
	reg := tr.begin("plugin.register", sp, 0, caller)
	_, err := register(e, f.data)
	reg.end()
	if err != nil {
		return err
	}
	for _, q := range f.qs {
		f.qid++
		checked(e, q, f.ref, rec, tr, caller, f.qid)
	}
	sp.end()
	s := statsOf(e)
	f.mu.Lock()
	f.acc = f.acc.plus(s)
	// File images and cache bytes are gauges of the live session.
	f.acc.files, f.acc.snap.Cache.Bytes = s.files, s.snap.Cache.Bytes
	f.mu.Unlock()
	return nil
}

func (f *spamFixture) stats() engineStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.acc
}

func (f *spamFixture) layers(tr *tracer, m metrics, rec *recorder) error {
	if err := coldPass(spamConfig(), f.data, f.qs, f.ref, m, rec); err != nil {
		return err
	}
	// The split runs one whole session on a fresh engine: spam_session's
	// per-layer cost is its cold cost.
	e := engine.New(spamConfig())
	if _, err := register(e, f.data); err != nil {
		return err
	}
	splitPasses(tr, e, f.qs, f.ref, 1, m, rec, &f.qid)
	return nil
}
