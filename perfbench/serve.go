package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/serve"
	"github.com/s3pg/s3pg/internal/server"
	"github.com/s3pg/s3pg/internal/shacl"
)

// serve-read load settings, fixed once from measurements on the reference
// machine (2 CPUs) and recorded in BENCHMARK.json; they are not re-tuned.
const (
	serveScale = 0.0004 // about 46.6k triples
	// nominalQPS is the fixed rate at which latency is reported.
	nominalQPS = 20.0
	// p90LimitMs is the latency limit a ladder rate must meet at p90.
	p90LimitMs = 200.0
	// nominalShare is the part of the run spent at the nominal rate; the
	// rest goes to the rate ladder.
	nominalShare = 0.3
	// ladderPerCase is how many requests of each case one ladder step
	// sends: 10 × 12 cases = 120, enough for a p90 with ten beyond it.
	ladderPerCase = 10
	// capacityPerCase is how many requests of each case the closed-loop
	// capacity phase sends back to back on every connection.
	capacityPerCase = 48
)

// qpsLadder is the fixed set of rates query_max_qps is chosen from:
// 30/s × 1.04^i up to 120/s, so neighbouring rates are 4% apart.
var qpsLadder = func() []float64 {
	var l []float64
	for r := 30.0; r <= 120; r *= 1.04 {
		l = append(l, r)
	}
	return l
}()

// queryShape is one query of the serve-read mix.
type queryShape struct {
	name string
	req  serve.Request
}

// queryShapes are the six shapes of the mix: Cypher count / IRI lookup /
// row-capped scan, and SPARQL COUNT(*) / ASK / ORDER BY+LIMIT+OFFSET. Each
// stresses a different engine operator.
func queryShapes(g *rdf.Graph) []queryShape {
	var anyIRI string
	g.ForEach(func(t rdf.Triple) bool {
		if t.S.IsIRI() {
			anyIRI = t.S.Value
			return false
		}
		return true
	})
	return []queryShape{
		{"cypher_count", serve.Request{Lang: "cypher", Query: `MATCH (n) RETURN count(*) AS n`}},
		{"cypher_iri", serve.Request{Lang: "cypher", Query: `MATCH (n) WHERE n.iri = $iri RETURN n.iri AS iri`,
			Params: map[string]any{"iri": anyIRI}}},
		{"cypher_maxrows", serve.Request{Lang: "cypher", Query: `MATCH (n) RETURN n.iri AS iri`, MaxRows: 16}},
		{"sparql_count", serve.Request{Lang: "sparql", Query: `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`}},
		{"sparql_ask", serve.Request{Lang: "sparql", Query: `ASK { ?s a ?c }`}},
		{"sparql_orderlimit", serve.Request{Lang: "sparql", Query: `SELECT ?s WHERE { ?s a ?c } ORDER BY ?s LIMIT 5 OFFSET 3`}},
	}
}

// parseShapes loads SHACL shapes from Turtle.
func parseShapes(ttl string) (*shacl.Schema, error) {
	sgGraph, err := rio.ParseTurtle(ttl)
	if err != nil {
		return nil, err
	}
	return shacl.FromGraph(sgGraph)
}

// referenceSnapshot builds, in-process and single-threaded, the snapshot
// the daemon serves for a graph created from these shapes and data.
func referenceSnapshot(ds *dataset, mode core.Mode) (*serve.Snapshot, error) {
	sg, err := parseShapes(ds.shapesTTL)
	if err != nil {
		return nil, err
	}
	g, err := rio.LoadNTriples(strings.NewReader(ds.nt))
	if err != nil {
		return nil, err
	}
	st, err := core.NewDeltaState(g, sg, mode)
	if err != nil {
		return nil, err
	}
	return serve.NewSnapshot(g, st.Store(), st.SchemaDDL(), 0), nil
}

// canonicalAnswer is the byte form answers are compared in.
func canonicalAnswer(cols []string, rows [][]any) ([]byte, error) {
	return json.Marshal([]any{cols, rows})
}

// serveCase is one (shape, target) pair with its precomputed request body
// and expected answer.
type serveCase struct {
	shape  string
	target string
	body   []byte
	expect []byte
}

// referenceAnswers evaluates each shape single-threaded on the in-process
// snapshot and returns the canonical answers.
func referenceAnswers(shapes []queryShape, snap *serve.Snapshot) ([][]byte, error) {
	var out [][]byte
	for _, s := range shapes {
		resp, err := serve.Execute(context.Background(), snap, s.req)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", s.name, err)
		}
		b, err := canonicalAnswer(resp.Columns, resp.Rows)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// buildServeCases pairs every shape with both targets: the live graph
// "bench" and the finished job.
func buildServeCases(shapes []queryShape, expect [][]byte, jobID string) ([]serveCase, error) {
	var cases []serveCase
	for i, s := range shapes {
		for _, target := range []string{"graph", "job"} {
			q := server.QueryRequest{Lang: s.req.Lang, Query: s.req.Query, Params: s.req.Params, MaxRows: s.req.MaxRows}
			if target == "graph" {
				q.Graph = "bench"
			} else {
				q.Job = jobID
			}
			body, err := json.Marshal(q)
			if err != nil {
				return nil, err
			}
			cases = append(cases, serveCase{shape: s.name, target: target, body: body, expect: expect[i]})
		}
	}
	return cases, nil
}

// query sends one POST /query and checks the answer against want. A non-200
// status (429 included), a timeout or a wrong answer is an error.
func (d *daemon) query(ctx context.Context, body, want []byte) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	code, b, err := d.do(ctx, http.MethodPost, "/query", "application/json", body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, lastLine(string(b)))
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(b, &qr); err != nil {
		return err
	}
	got, err := canonicalAnswer(qr.Columns, qr.Rows)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("answer differs from single-threaded serve.Execute: %.200s", got)
	}
	return nil
}

// createBody is a PUT /graphs/{id} or POST /jobs body.
func createBody(mode string, ds *dataset) ([]byte, error) {
	return json.Marshal(map[string]string{"mode": mode, "shapes": ds.shapesTTL, "data": ds.nt})
}

// stepResult summarizes one open-loop step.
type stepResult struct {
	rate      float64
	n         int
	p50, p90  float64 // ms
	p90ok     bool
	achieved  float64 // completed requests per second
	backlog   int
	lateP90   float64 // ms
	res       []outcome
	kases     []int
	lats      []float64
	lates     []float64
	failed    int
	firstFail error
}

// passes reports whether the step met the p90 limit with every request
// answered correctly and no growing backlog: at most a tenth of the step
// (or the in-flight requests, if more) still unsent when the last request
// fell due.
func (s stepResult) passes(conns int) bool {
	return s.failed == 0 && s.p90ok && s.p90 <= p90LimitMs && s.backlog <= max(conns, s.n/10)
}

// runStep sends exactly per requests of each case at rate in an open loop
// (rate +Inf: a closed loop) and summarizes them.
func runStep(ctx context.Context, d *daemon, cases []serveCase, rate float64, per, conns int, seed int64) stepResult {
	sched := buildSchedule(len(cases), per, rate, seed)
	res := runOpenLoop(ctx, sched, conns, func(ctx context.Context, k int) error {
		return d.query(ctx, cases[k].body, cases[k].expect)
	})
	return summarize(rate, res, cases)
}

// summarize computes a step's latency percentiles, achieved rate and
// backlog from its outcomes.
func summarize(rate float64, res []outcome, cases []serveCase) stepResult {
	st := stepResult{rate: rate, n: len(res), backlog: backlogAtEnd(res), res: res}
	var last time.Duration
	for _, o := range res {
		if o.err != nil {
			st.failed++
			if st.firstFail == nil {
				st.firstFail = fmt.Errorf("%s/%s: %w", cases[o.kase].shape, cases[o.kase].target, o.err)
			}
		}
		st.kases = append(st.kases, o.kase)
		st.lats = append(st.lats, float64(o.latency())/1e6)
		st.lates = append(st.lates, float64(o.lateness())/1e6)
		last = max(last, o.done)
	}
	st.p50 = median(st.lats)
	st.p90, st.p90ok = percentile(st.lats, 0.90)
	st.lateP90, _ = percentile(st.lates, 0.90)
	st.achieved = float64(len(res)) / last.Seconds()
	return st
}

// caseMedians lists each case's median latency in a step.
func caseMedians(cases []serveCase, st stepResult) string {
	by := make([][]float64, len(cases))
	for i, k := range st.kases {
		by[k] = append(by[k], st.lats[i])
	}
	var parts []string
	for k, c := range cases {
		parts = append(parts, fmt.Sprintf("%s/%s=%.1f", c.shape, c.target, median(by[k])))
	}
	return strings.Join(parts, " ")
}

// serveSetup starts the daemon, creates the live graph, runs the job to
// completion and sends the first query to each target; it returns the
// daemon and the finished job's id.
func serveSetup(ctx context.Context, e *env, dir string, ds *dataset, graphMode string, firstQuery func(d *daemon, jobID string) error) (*daemon, string, error) {
	d, err := startDaemon(ctx, e.s3pgd, dir, e.nproc+1, "-workers", "1")
	if err != nil {
		return nil, "", err
	}
	body, err := createBody(graphMode, ds)
	if err == nil {
		err = d.expect(ctx, http.MethodPut, "/graphs/bench", body, http.StatusCreated, nil)
	}
	var jobID string
	if err == nil && firstQuery != nil {
		var jb []byte
		if jb, err = createBody("", ds); err == nil {
			var j jobStatus
			j, _, err = d.runJob(ctx, jb)
			jobID = j.ID
		}
		if err == nil {
			err = firstQuery(d, jobID)
		}
	}
	if err != nil {
		d.stop()
		return nil, "", err
	}
	return d, jobID, nil
}

// runServeRead is the serve-read workload: read-only POST /query traffic in
// an open loop against one live graph and one finished job.
func runServeRead(ctx context.Context, e *env, rep *report) error {
	ds, err := genDataset(serveScale, e.seed)
	if err != nil {
		return err
	}
	snap, err := referenceSnapshot(ds, core.Parsimonious)
	if err != nil {
		return err
	}
	shapes := queryShapes(ds.g)
	expect, err := referenceAnswers(shapes, snap)
	if err != nil {
		return err
	}
	// The load generator shares the CPUs with the daemon: drop the graph and
	// the reference snapshot so its own collections stay small.
	triples := ds.g.Len()
	ds.g, snap = nil, nil
	runtime.GC()

	var d *daemon
	var jobID string
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return err
			}
		}
		start := time.Now()
		rep.attempted++
		d, jobID, err = serveSetup(ctx, e, filepath.Join(e.dir, fmt.Sprintf("daemon%d", i)), ds, "", func(d *daemon, jobID string) error {
			cs, err := buildServeCases(shapes[:1], expect, jobID)
			if err != nil {
				return err
			}
			for _, c := range cs {
				if err := d.query(ctx, c.body, c.expect); err != nil {
					return fmt.Errorf("first query to %s: %w", c.target, err)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
	}
	rep.setup(times)
	defer func() {
		rss, err := d.stop()
		if err != nil {
			rep.fail("s3pgd exit: %v", err)
		}
		rep.e2e("peak_rss_mb", rss)
		rep.info("daemon.peak_rss_mb", "MB", rss, 1)
	}()

	cases, err := buildServeCases(shapes, expect, jobID)
	if err != nil {
		return err
	}
	// Warm-up: every case once, in order, checked like every other answer.
	for _, c := range cases {
		rep.attempted++
		if err := d.query(ctx, c.body, c.expect); err != nil {
			rep.fail("warm-up %s/%s: %v", c.shape, c.target, err)
		}
	}

	conns := e.nproc
	nomPer := int(math.Ceil(nominalQPS * e.seconds.Seconds() * nominalShare / float64(len(cases))))
	nomPer = max(nomPer, (minSamplesFor(0.90)+len(cases)-1)/len(cases))
	nom := runStep(ctx, d, cases, nominalQPS, nomPer, conns, e.seed)
	rep.count(nom)

	// Capacity: the same mix in a closed loop, every connection sending its
	// next request as soon as the previous answer arrives.
	capa := runStep(ctx, d, cases, math.Inf(1), capacityPerCase, conns, e.seed)
	rep.count(capa)

	// query_max_qps: binary search for the highest ladder rate that meets
	// the p90 limit without a growing backlog.
	lo, hi, best := 0, len(qpsLadder)-1, -1
	var bestStep stepResult
	var visited []string
	for step := 0; lo <= hi; step++ {
		mid := (lo + hi) / 2
		st := runStep(ctx, d, cases, qpsLadder[mid], ladderPerCase, conns, e.seed+int64(step)+1)
		rep.count(st)
		ok := st.passes(conns)
		visited = append(visited, fmt.Sprintf("%.1f/s:p90=%.1fms,backlog=%d,%s", st.rate, st.p90, st.backlog, map[bool]string{true: "pass", false: "fail"}[ok]))
		if ok {
			best, bestStep, lo = mid, st, mid+1
		} else {
			hi = mid - 1
		}
	}
	if best < 0 {
		rep.fail("no ladder rate met p90 <= %.0f ms (lowest %.0f/s)", p90LimitMs, qpsLadder[0])
		bestStep = runStep(ctx, d, cases, qpsLadder[0], ladderPerCase, conns, e.seed)
	}

	// Under full load a request's latency is timed from when it was sent:
	// every connection sends as soon as its previous answer arrives.
	var served []float64
	for _, o := range capa.res {
		served = append(served, float64(o.done-o.sent)/1e6)
	}
	capaP50 := median(served)
	rep.e2e("throughput_per_s", capa.achieved)
	rep.e2e("latency_p50_ms", capaP50)
	rep.info("query_p50_ms", "ms", nom.p50, nom.n)
	rep.info("query_p90_ms", "ms", nom.p90, nom.n)
	rep.info("query_max_qps", "1/s", bestStep.achieved, bestStep.n)
	rep.info("query_capacity_qps", "1/s", capa.achieved, capa.n)
	rep.info("query_capacity_p50_ms", "ms", capaP50, capa.n)
	rep.note("nominal p50 by case: %s", caseMedians(cases, nom))
	rep.note("input: %d triples; nominal %.0f/s on %d connections, generator late p90 %.2f ms; ladder %v",
		triples, nominalQPS, conns, nom.lateP90, visited)
	return nil
}
