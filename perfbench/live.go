package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/server"
	"github.com/s3pg/s3pg/internal/sparql"
)

// live-update settings, fixed once from measurements on the reference
// machine. The batch counts scale with the run length so a run takes about
// --seconds; within a run they are exact.
const (
	liveScale = 0.0004 // about 46.6k triples, the serve-read graph
	// churnPerSecond is how many churn batches a second of run length buys.
	churnPerSecond = 1.5
	// growPerChurn is how many grow-only batches accompany each churn batch.
	growPerChurn = 2
	growFrac     = 0.002
)

var liveChurn = datagen.Churn{AddFrac: 0.002, DeleteFrac: 0.001, MutateFrac: 0.001}

// batch is one precomputed SPARQL Update with its read-your-write probe.
type batch struct {
	churn bool
	stmts int
	body  []byte
	// probe is a POST /query body whose ASK answer proves the batch is
	// visible: an inserted triple must be there (grow) or a deleted one
	// gone (churn).
	probe     []byte
	probeWant bool
}

// sparqlUpdate renders a delta as the request body a client sends.
func sparqlUpdate(d *rdf.Delta) string {
	var b strings.Builder
	if len(d.Deletes) > 0 {
		b.WriteString("DELETE DATA {\n")
		for _, t := range d.Deletes {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
		b.WriteString("}")
	}
	if len(d.Inserts) > 0 {
		if b.Len() > 0 {
			b.WriteString(" ;\n")
		}
		b.WriteString("INSERT DATA {\n")
		for _, t := range d.Inserts {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
		b.WriteString("}")
	}
	return b.String()
}

// askBody is a POST /query body asking whether triple t is in the graph.
func askBody(graph string, t rdf.Triple) ([]byte, error) {
	q := fmt.Sprintf("ASK { %s %s %s }", t.S, t.P, t.O)
	return json.Marshal(server.QueryRequest{Graph: graph, Lang: "sparql", Query: q})
}

// genBatches lays out exactly churns churn batches and grows grow-only
// batches in a seeded order, each generated against the graph its
// predecessors leave behind.
func genBatches(g *rdf.Graph, churns, grows int, seed int64) ([]batch, error) {
	kinds := make([]bool, 0, churns+grows)
	for i := 0; i < churns; i++ {
		kinds = append(kinds, true)
	}
	for i := 0; i < grows; i++ {
		kinds = append(kinds, false)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	scratch := g.Clone()
	out := make([]batch, 0, len(kinds))
	for i, churn := range kinds {
		bseed := seed*100003 + int64(i)
		d := &rdf.Delta{}
		if churn {
			d = datagen.EvolveChurn(scratch, profile(), liveChurn, bseed)
		} else {
			datagen.Evolve(scratch, profile(), growFrac, bseed).ForEach(func(t rdf.Triple) bool {
				if t.P != rdf.A {
					d.Inserts = append(d.Inserts, t)
				}
				return true
			})
		}
		for _, t := range d.Deletes {
			scratch.Remove(t)
		}
		for _, t := range d.Inserts {
			scratch.Add(t)
		}
		b := batch{churn: churn, stmts: d.Len(), body: []byte(sparqlUpdate(d))}
		var probe rdf.Triple
		switch {
		case churn && len(d.Deletes) > 0:
			probe, b.probeWant = d.Deletes[0], false
		case len(d.Inserts) > 0:
			probe, b.probeWant = d.Inserts[0], true
		default:
			return nil, fmt.Errorf("batch %d is empty", i)
		}
		if scratch.Has(probe) != b.probeWant {
			return nil, fmt.Errorf("batch %d: probe %v is re-added or missing within the batch", i, probe)
		}
		var err error
		if b.probe, err = askBody("bench", probe); err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// change is one /changes record as the follower saw it.
type change struct {
	digest string
	seen   time.Time
}

// follower holds GET /graphs/bench/changes?follow=1 open and records every
// record's digest and arrival time by LSN.
type follower struct {
	mu     sync.Mutex
	byLSN  map[uint64]change
	last   uint64
	err    error
	cancel context.CancelFunc
	done   chan struct{}
}

// follow opens the change stream and returns once its 200 has arrived.
func follow(ctx context.Context, d *daemon) (*follower, error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/graphs/bench/changes?from=0&follow=1", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	// Its own connection: the stream never returns it to the pool.
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /changes: status %d", resp.StatusCode)
	}
	f := &follower{byLSN: make(map[uint64]change), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		defer resp.Body.Close()
		br := bufio.NewReaderSize(resp.Body, 1<<20)
		for {
			line, err := br.ReadBytes('\n')
			if len(bytes.TrimSpace(line)) > 0 {
				seen := time.Now()
				pd, derr := core.DecodePGDelta(bytes.TrimSpace(line))
				var dg string
				if derr == nil {
					dg, derr = pd.Digest()
				}
				f.mu.Lock()
				if derr != nil && f.err == nil {
					f.err = derr
				} else if derr == nil {
					f.byLSN[pd.LSN] = change{digest: dg, seen: seen}
					f.last = max(f.last, pd.LSN)
				}
				f.mu.Unlock()
			}
			if err != nil {
				return
			}
		}
	}()
	return f, nil
}

// waitFor blocks until the follower has seen lsn or the timeout passes.
func (f *follower) waitFor(lsn uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		f.mu.Lock()
		last := f.last
		f.mu.Unlock()
		if last >= lsn {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// close ends the stream and waits for the reader goroutine to exit.
func (f *follower) close() {
	f.cancel()
	<-f.done
}

// liveSetup starts the daemon, creates the live graph and opens /changes.
func liveSetup(ctx context.Context, e *env, dir string, ds *dataset) (*daemon, *follower, error) {
	d, _, err := serveSetup(ctx, e, dir, ds, "", nil)
	if err != nil {
		return nil, nil, err
	}
	f, err := follow(ctx, d)
	if err != nil {
		d.stop()
		return nil, nil, err
	}
	return d, f, nil
}

// runLiveUpdate is the live-update workload: one writer sends grow-only
// and churn SPARQL Update batches to a live graph, each followed by a
// read-your-write query, while a /changes follower holds a second
// connection.
func runLiveUpdate(ctx context.Context, e *env, rep *report) error {
	ds, err := genDataset(liveScale, e.seed)
	if err != nil {
		return err
	}
	churns := int(e.seconds.Seconds()*churnPerSecond + 0.5)
	if churns < 1 {
		churns = 1
	}
	batches, err := genBatches(ds.g, churns, churns*growPerChurn, e.seed)
	if err != nil {
		return err
	}
	// The writer shares the CPUs with the daemon: keep only the serialized
	// inputs the final check needs, so its own collections stay small.
	triples := ds.g.Len()
	ds.g = nil
	runtime.GC()

	var d *daemon
	var f *follower
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			f.close()
			if _, err := d.stop(); err != nil {
				return err
			}
		}
		start := time.Now()
		rep.attempted++
		if d, f, err = liveSetup(ctx, e, filepath.Join(e.dir, fmt.Sprintf("daemon%d", i)), ds); err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
	}
	rep.setup(times)
	defer func() {
		f.close()
		rss, err := d.stop()
		if err != nil {
			rep.fail("s3pgd exit: %v", err)
		}
		rep.e2e("peak_rss_mb", rss)
		rep.info("daemon.peak_rss_mb", "MB", rss, 1)
	}()

	type ack struct {
		lsn    uint64
		digest string
		at     time.Time
	}
	var growMs, churnMs, freshMs []float64
	acks := make([]ack, 0, len(batches))
	var allStmts int
	loopStart := time.Now()
	for i, b := range batches {
		allStmts += b.stmts
		rep.attempted++
		start := time.Now()
		var res server.UpdateResult
		if err := d.expect(ctx, http.MethodPost, "/graphs/bench/update", b.body, http.StatusAccepted, &res); err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
		now := time.Now()
		took := now.Sub(start)
		acks = append(acks, ack{res.LSN, res.Digest, now})
		if b.churn {
			churnMs = append(churnMs, float64(took)/1e6)
		} else {
			growMs = append(growMs, float64(took)/1e6)
		}

		rep.attempted++
		start = time.Now()
		code, body, err := d.do(ctx, http.MethodPost, "/query", "application/json", b.probe)
		freshMs = append(freshMs, float64(time.Since(start))/1e6)
		if err != nil || code != http.StatusOK {
			rep.fail("batch %d read-your-write: status %d %v: %s", i, code, err, lastLine(string(body)))
			continue
		}
		var qr server.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			return err
		}
		if qr.LSN < res.LSN || len(qr.Rows) != 1 || len(qr.Rows[0]) != 1 || qr.Rows[0][0] != strconv.FormatBool(b.probeWant) {
			rep.fail("batch %d read-your-write: lsn %d (ack %d), rows %v, want %v", i, qr.LSN, res.LSN, qr.Rows, b.probeWant)
		}
	}

	loop := time.Since(loopStart)

	// /changes: every acked LSN must arrive with the ack's digest.
	if !f.waitFor(acks[len(acks)-1].lsn, 10*time.Second) {
		rep.fail("/changes did not reach lsn %d within 10s", acks[len(acks)-1].lsn)
	}
	f.mu.Lock()
	var lagMs []float64
	for i, a := range acks {
		rep.attempted++
		c, ok := f.byLSN[a.lsn]
		switch {
		case a.lsn != uint64(i+1):
			rep.fail("ack %d has lsn %d, want a dense sequence", i, a.lsn)
		case !ok:
			rep.fail("/changes never delivered lsn %d", a.lsn)
		case c.digest != a.digest:
			rep.fail("/changes lsn %d digest %s, ack said %s", a.lsn, c.digest, a.digest)
		default:
			lagMs = append(lagMs, max(0, float64(c.seen.Sub(a.at))/1e6))
		}
	}
	if f.err != nil {
		rep.fail("/changes record undecodable: %v", f.err)
	}
	f.mu.Unlock()

	// Final state: the live exports must equal a from-scratch transform of
	// the final RDF graph, replayed here from the same request bodies.
	rep.attempted++
	if err := checkFinalExports(ctx, d, ds, batches); err != nil {
		rep.fail("final exports: %v", err)
	}

	// The writer's rate includes its read-your-write queries: it is the
	// update rate a client that reads its own writes gets.
	writerRate := float64(allStmts) / loop.Seconds()
	rep.e2e("throughput_per_s", writerRate)
	rep.info("writer_stmts_per_s", "1/s", writerRate, len(batches))
	churnP50 := median(churnMs)
	rep.e2e("latency_p50_ms", churnP50)
	rep.info("grow_ack_p50_ms", "ms", median(growMs), len(growMs))
	rep.info("churn_ack_p50_ms", "ms", churnP50, len(churnMs))
	rep.tail("churn_ack_p90_ms", churnMs, 0.90)
	rep.info("fresh_query_p50_ms", "ms", median(freshMs), len(freshMs))
	rep.info("changes.lag_p50_ms", "ms", median(lagMs), len(lagMs))
	rep.note("input: %d triples; %d churn + %d grow-only batches, %d statements", triples, churns, len(batches)-churns, allStmts)
	return nil
}

// checkFinalExports replays every batch body onto the initial graph with
// the same parser the daemon uses, transforms the result from scratch and
// compares it with the daemon's live exports.
func checkFinalExports(ctx context.Context, d *daemon, ds *dataset, batches []batch) error {
	snapG, err := rio.LoadNTriples(strings.NewReader(ds.nt))
	if err != nil {
		return err
	}
	for i, b := range batches {
		delta, err := sparql.ParseUpdate(string(b.body))
		if err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
		for _, t := range delta.Deletes {
			snapG.Remove(t)
		}
		for _, t := range delta.Inserts {
			snapG.Add(t)
		}
	}
	sg, err := parseShapes(ds.shapesTTL)
	if err != nil {
		return err
	}
	store, schema, err := core.Transform(snapG, sg, core.Parsimonious)
	if err != nil {
		return err
	}
	var nodes, edges bytes.Buffer
	if err := store.WriteCSV(&nodes, &edges); err != nil {
		return err
	}
	want := map[string][]byte{"nodes.csv": nodes.Bytes(), "edges.csv": edges.Bytes(), "schema.ddl": []byte(pgschema.WriteDDL(schema))}
	got := make(map[string][]byte, len(outputNames))
	for _, n := range outputNames {
		if got[n], err = d.get(ctx, "/graphs/bench/output/"+n); err != nil {
			return err
		}
	}
	for _, n := range outputNames {
		if !bytes.Equal(got[n], want[n]) {
			return fmt.Errorf("%s differs from core.Transform of the final graph (%d vs %d bytes)", n, len(got[n]), len(want[n]))
		}
	}
	return nil
}
