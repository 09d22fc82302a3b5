package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/s3pg/s3pg"
	"github.com/s3pg/s3pg/internal/ckpt"
	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/cypher"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/serve"
	"github.com/s3pg/s3pg/internal/server"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/shapeex"
	"github.com/s3pg/s3pg/internal/sparql"
	"github.com/s3pg/s3pg/internal/wal"
)

// layerMetric says which workload a per-layer metric belongs to and which
// end-to-end metric it should move; the traced run prints both next to
// the value.
type layerMetric struct {
	name, unit, workload, moves string
}

// layerMetrics is every per-layer metric in the order the traced run
// prints them. A traced run of any workload measures all of them, each on
// the inputs of the workload it belongs to, so every traced result line
// carries the same metrics.
var layerMetrics = []layerMetric{
	{"rio.parse_ns_per_triple", "ns", "bulk", "transform_triples_per_s"},
	{"rdf.ingest_ns_per_triple", "ns", "bulk", "transform_triples_per_s"},
	{"rdf.ingest_alloc_b_per_triple", "B", "bulk", "transform_triples_per_s, peak_rss_mb"},
	{"shapeex.extract_ms", "ms", "bulk", "setup_s"},
	{"core.fdt_ns_per_triple", "ns", "bulk", "transform_triples_per_s"},
	{"core.fdt_alloc_b_per_triple", "B", "bulk", "transform_triples_per_s, peak_rss_mb"},
	{"pg.export_ns_per_triple", "ns", "bulk", "transform_triples_per_s"},
	{"ckpt.commit_ms", "ms", "bulk", "transform_triples_per_s"},
	{"gc.cycles", "count", "bulk", "peak_rss_mb, transform_triples_per_s"},
	{"gc.pause_ms", "ms", "bulk", "peak_rss_mb, transform_triples_per_s"},
	{"heap.live_graph_mb", "MB", "bulk", "peak_rss_mb"},
	{"trace.overhead_ratio", "ratio", "bulk", "none (traced ÷ untraced pipeline time)"},
	{"trace.coverage", "ratio", "bulk", "none (traced pipeline ÷ CLI -workers 1 median)"},
	{"rio.load_par_ns_per_triple", "ns", "bulk", "transform_par_triples_per_s"},
	{"core.fdt_par_ns_per_triple", "ns", "bulk", "transform_par_triples_per_s"},
	{"pg.export_par_ns_per_triple", "ns", "bulk", "transform_par_triples_per_s"},
	{"jobs.queue_ms", "ms", "bulk", "job_triples_per_s"},
	{"jobs.run_ms", "ms", "bulk", "job_triples_per_s"},
	{"jobs.checkpoint_ms", "ms", "bulk", "job_triples_per_s"},
	{"jobs.commit_ms", "ms", "bulk", "job_triples_per_s"},
	{"rdf.spills", "count", "bulk-oocore", "transform_triples_per_s, peak_rss_mb"},
	{"rdf.spill_ms", "ms", "bulk-oocore", "transform_triples_per_s"},
	{"rdf.spill_bytes_per_triple", "B", "bulk-oocore", "transform_triples_per_s"},
	{"heap.live_spilled_mb", "MB", "bulk-oocore", "peak_rss_mb"},
	{"core.fdt_spilled_ns_per_triple", "ns", "bulk-oocore", "transform_triples_per_s"},
	{"serve.exec_ms.cypher_count", "ms", "serve-read", "query_p50_ms, query_p90_ms, query_max_qps"},
	{"serve.exec_ms.cypher_iri", "ms", "serve-read", "query_p50_ms, query_p90_ms, query_max_qps"},
	{"serve.exec_ms.cypher_maxrows", "ms", "serve-read", "query_p50_ms, query_p90_ms, query_max_qps"},
	{"serve.exec_ms.sparql_count", "ms", "serve-read", "query_p50_ms, query_p90_ms, query_max_qps"},
	{"serve.exec_ms.sparql_ask", "ms", "serve-read", "query_p50_ms, query_p90_ms, query_max_qps"},
	{"serve.exec_ms.sparql_orderlimit", "ms", "serve-read", "query_p50_ms, query_p90_ms, query_max_qps"},
	{"cypher.parse_us", "us", "serve-read", "query_p50_ms"},
	{"sparql.parse_us", "us", "serve-read", "query_p50_ms"},
	{"server.service_p50_ms", "ms", "serve-read", "query_p50_ms"},
	{"http.overhead_p50_ms", "ms", "serve-read", "query_p50_ms"},
	{"serve.cache.hit_ratio", "ratio", "serve-read", "query_p90_ms"},
	{"gen.late_p90_ms", "ms", "serve-read", "none (generator validity)"},
	{"sparql.update_parse_us", "us", "live-update", "grow_ack_p50_ms"},
	{"core.apply_grow_ms", "ms", "live-update", "grow_ack_p50_ms"},
	{"core.apply_churn_ms", "ms", "live-update", "churn_ack_p50_ms, churn_ack_p90_ms"},
	{"core.fast_apply_ratio", "ratio", "live-update", "churn_ack_p50_ms"},
	{"core.changes_per_stmt", "ratio", "live-update", "churn_ack_p50_ms"},
	{"core.digest_ms", "ms", "live-update", "grow_ack_p50_ms"},
	{"wal.append_ms", "ms", "live-update", "grow_ack_p50_ms"},
	{"wal.bytes_per_stmt", "B", "live-update", "grow_ack_p50_ms"},
	{"rdf.clone_ms", "ms", "live-update", "fresh_query_p50_ms"},
	{"pg.clone_ms", "ms", "live-update", "fresh_query_p50_ms"},
	{"serve.snapshot_ms", "ms", "live-update", "fresh_query_p50_ms"},
	{"changes.lag_ms", "ms", "live-update", "none (visibility check)"},
}

// tracer is the state of one traced run.
type tracer struct {
	e    *env
	rep  *report
	rec  *recorder
	vals map[string]float64
}

func (t *tracer) set(name string, v float64) { t.vals[name] = v }

// stop shuts a daemon down and counts an unclean exit as a failure.
func (t *tracer) stop(d *daemon) {
	if _, err := d.stop(); err != nil {
		t.rep.fail("s3pgd exit: %v", err)
	}
}

// runTraced measures every layer in-process, around calls into each
// layer's functions, on the same seeded inputs as the timed workloads. It
// also drives short daemon phases for the layers only a running s3pgd
// shows (job phases, service time, cache, change stream).
func runTraced(ctx context.Context, e *env, rep *report) error {
	t := &tracer{e: e, rep: rep, rec: newRecorder(), vals: make(map[string]float64)}
	if err := t.bulk(ctx); err != nil {
		return fmt.Errorf("bulk layers: %w", err)
	}
	ds, err := genDataset(serveScale, e.seed)
	if err != nil {
		return err
	}
	if err := t.serveLayers(ctx, ds); err != nil {
		return fmt.Errorf("serve layers: %w", err)
	}
	if err := t.liveLayers(ctx, ds); err != nil {
		return fmt.Errorf("delta layers: %w", err)
	}
	if err := t.daemonLayers(ctx, ds); err != nil {
		return fmt.Errorf("daemon layers: %w", err)
	}

	for _, m := range layerMetrics {
		v, ok := t.vals[m.name]
		if !ok {
			return fmt.Errorf("layer metric %s was not measured", m.name)
		}
		rep.metrics[m.name] = metric{Value: v, Unit: m.unit}
		rep.lines = append(rep.lines, fmt.Sprintf("  %-34s %14.4f %-5s [%s] moves %s", m.name, v, m.unit, m.workload, m.moves))
	}
	return t.writeSpans()
}

// writeSpans writes the run's spans, with self times, to
// .bench_build/traces/ and prints the top-level self-time breakdown.
func (t *tracer) writeSpans() error {
	dir := filepath.Join(t.e.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", t.e.workload, t.e.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.rec.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	spans := t.rec.snapshot()
	self := selfTimes(spans)
	for _, s := range spans {
		if s.Parent == -1 {
			t.rep.note("span %-22s total %8.1f ms, self %8.1f ms", s.Name, float64(s.dur())/1e6, float64(self[s.ID])/1e6)
		}
	}
	t.rep.note("%d spans written to %s", len(spans), path)
	return nil
}

// memDelta measures a call's wall time and allocated bytes.
func memDelta(fn func() error) (time.Duration, uint64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	runtime.ReadMemStats(&b)
	return d, b.TotalAlloc - a.TotalAlloc, err
}

// liveHeap collects and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// exportOutputs renders a transformer's nodes.csv, edges.csv and schema.ddl.
func exportOutputs(tr *core.Transformer, workers int) (map[string][]byte, error) {
	var nodes, edges bytes.Buffer
	var err error
	if workers > 1 {
		err = tr.Store().WriteCSVParallel(&nodes, &edges, workers)
	} else {
		err = tr.Store().WriteCSV(&nodes, &edges)
	}
	return map[string][]byte{"nodes.csv": nodes.Bytes(), "edges.csv": edges.Bytes(), "schema.ddl": []byte(pgschema.WriteDDL(tr.Schema()))}, err
}

// seqPipeline is the sequential CLI pipeline as separate layer calls:
// parse, ingest, F_dt, export and atomic commit. With rec nil it records no
// spans, so comparing the two totals gives the tracing overhead. Only a
// pass recording into the run's own recorder sets the layer metrics. The total
// is the pipeline's wall time less the untimed re-parse that feeds ingest.
func (t *tracer) seqPipeline(ctx context.Context, nt []byte, sg *shacl.Schema, rec *recorder) (map[string][]byte, time.Duration, error) {
	start := time.Now()
	root := -1
	if rec != nil {
		root = rec.start("bulk.pipeline", -1)
	}
	stage := func(name string, fn func() error) (time.Duration, uint64, error) {
		if rec == nil {
			return memDelta(fn)
		}
		id := rec.start(name, root)
		defer rec.end(id)
		return memDelta(fn)
	}
	n := 0
	parse, _, err := stage("rio.parse", func() error {
		return rio.ReadNTriplesWith(ctx, bytes.NewReader(nt), rio.Options{}, func(rdf.Triple) error { n++; return nil })
	})
	if err != nil {
		return nil, 0, err
	}
	// Ingest is timed over pre-parsed triples so parsing is not counted
	// twice; this second parse is left out of the total.
	reparse := time.Now()
	triples := make([]rdf.Triple, 0, n)
	if err := rio.ReadNTriplesWith(ctx, bytes.NewReader(nt), rio.Options{}, func(tr rdf.Triple) error {
		triples = append(triples, tr)
		return nil
	}); err != nil {
		return nil, 0, err
	}
	skip := time.Since(reparse)
	g := rdf.NewGraph()
	ingest, ingestAlloc, _ := stage("rdf.ingest", func() error {
		for _, tr := range triples {
			g.Add(tr)
		}
		return nil
	})
	triples = nil
	tr, err := core.NewTransformer(sg, core.Parsimonious)
	if err != nil {
		return nil, 0, err
	}
	fdt, fdtAlloc, err := stage("core.fdt", func() error { return tr.ApplyContext(ctx, g, nil) })
	if err != nil {
		return nil, 0, err
	}
	var out map[string][]byte
	export, _, err := stage("pg.export", func() error {
		var err error
		out, err = exportOutputs(tr, 1)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	commit, _, err := stage("ckpt.commit", func() error {
		for _, name := range outputNames {
			b := out[name]
			if err := ckpt.WriteFileAtomic(filepath.Join(t.e.dir, "traced-"+name), 0o644, func(w io.Writer) error {
				_, err := w.Write(b)
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if rec != nil {
		rec.end(root)
	}
	if rec == t.rec {
		per := float64(n)
		t.set("rio.parse_ns_per_triple", float64(parse)/per)
		t.set("rdf.ingest_ns_per_triple", float64(ingest)/per)
		t.set("rdf.ingest_alloc_b_per_triple", float64(ingestAlloc)/per)
		t.set("core.fdt_ns_per_triple", float64(fdt)/per)
		t.set("core.fdt_alloc_b_per_triple", float64(fdtAlloc)/per)
		t.set("pg.export_ns_per_triple", float64(export)/per)
		t.set("ckpt.commit_ms", float64(commit)/1e6)
	}
	return out, time.Since(start) - skip, nil
}

// bulk measures the transform layers on the bulk and bulk-oocore input.
func (t *tracer) bulk(ctx context.Context) error {
	nt, triples, err := genNTriples(bulkScale, t.e.seed)
	if err != nil {
		return err
	}
	per := float64(triples)
	dataPath := filepath.Join(t.e.dir, "data.nt")
	if err := os.WriteFile(dataPath, nt, 0o644); err != nil {
		return err
	}

	// In-RAM graph footprint: the live heap the loaded graph holds. The
	// bulk-oocore budget is only meaningful if this is at least 3× it.
	base := liveHeap()
	g0, err := rio.LoadNTriples(bytes.NewReader(nt))
	if err != nil {
		return err
	}
	graphBytes := float64(liveHeap() - base)
	t.set("heap.live_graph_mb", graphBytes/1e6)
	t.rep.attempted++
	if ratio := graphBytes / float64(oocoreBudgetMB<<20); ratio < 3 {
		t.rep.fail("in-RAM graph is only %.1f× the %d MiB -max-mem budget (want >= 3×)", ratio, oocoreBudgetMB)
	}

	// Shapes, as `s3pg extract` derives them (the bulk workloads' set-up).
	var sg *shacl.Schema
	d, _ := t.rec.timed("shapeex.extract", -1, func() error {
		sg = shapeex.Extract(g0, shapeex.Options{MinSupport: 0.02})
		return nil
	})
	t.set("shapeex.extract_ms", float64(d)/1e6)
	g0 = nil
	shapesTTL, err := s3pg.ShapesToTurtle(sg)
	if err != nil {
		return err
	}
	shapesPath := filepath.Join(t.e.dir, "shapes.ttl")
	if err := os.WriteFile(shapesPath, []byte(shapesTTL), 0o644); err != nil {
		return err
	}

	// Sequential pipeline, traced, with GC counted around it; then the same
	// calls untraced for the tracing overhead.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	want, traced, err := t.seqPipeline(ctx, nt, sg, t.rec)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	t.set("gc.cycles", float64(after.NumGC-before.NumGC))
	t.set("gc.pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	// Overhead: after that first (cold) pass, untraced and traced passes
	// alternate, three of each, the traced ones recording into a scratch
	// recorder; the medians are compared.
	var tracedT, untracedT []float64
	for _, withSpans := range []bool{false, true, false, true, false, true} {
		var rec *recorder
		if withSpans {
			rec = newRecorder()
		}
		runtime.GC()
		got, d, err := t.seqPipeline(ctx, nt, sg, rec)
		if err != nil {
			return err
		}
		t.rep.attempted++
		if err := sameOutputs(got, want); err != nil {
			t.rep.fail("repeated pipeline: %v", err)
		}
		if withSpans {
			tracedT = append(tracedT, d.Seconds())
		} else {
			untracedT = append(untracedT, d.Seconds())
		}
	}
	t.set("trace.overhead_ratio", median(tracedT)/median(untracedT))

	// trace.coverage: how much of the CLI's wall time these layer calls
	// account for.
	var cli []float64
	out := filepath.Join(t.e.dir, "cli")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		t.rep.attempted++
		r, err := runCLI(ctx, t.e.dir, t.e.s3pg, transformArgs(shapesPath, dataPath, out, "-workers", "1")...)
		if err != nil {
			return err
		}
		if err := cliOutputsMatch(out, want); err != nil {
			t.rep.fail("CLI vs in-process pipeline: %v", err)
		}
		cli = append(cli, r.wall.Seconds())
	}
	t.set("trace.coverage", traced.Seconds()/median(cli))

	// Parallel pipeline at nproc.
	runtime.GC()
	root := t.rec.start("bulk.par", -1)
	var gp *rdf.Graph
	d, err = t.rec.timed("rio.load_par", root, func() error {
		var err error
		gp, err = rio.LoadNTriplesParallel(ctx, bytes.NewReader(nt), int64(len(nt)), rio.Options{}, t.e.nproc)
		return err
	})
	if err != nil {
		return err
	}
	t.set("rio.load_par_ns_per_triple", float64(d)/per)
	trp, err := core.NewTransformer(sg, core.Parsimonious)
	if err != nil {
		return err
	}
	d, err = t.rec.timed("core.fdt_par", root, func() error { return trp.ApplyParallel(ctx, gp, t.e.nproc, nil) })
	if err != nil {
		return err
	}
	t.set("core.fdt_par_ns_per_triple", float64(d)/per)
	var parOut map[string][]byte
	d, err = t.rec.timed("pg.export_par", root, func() error {
		var err error
		parOut, err = exportOutputs(trp, t.e.nproc)
		return err
	})
	if err != nil {
		return err
	}
	t.rec.end(root)
	t.set("pg.export_par_ns_per_triple", float64(d)/per)
	t.rep.attempted++
	if err := sameOutputs(parOut, want); err != nil {
		t.rep.fail("parallel pipeline: %v", err)
	}
	gp, trp, parOut = nil, nil, nil

	if err := t.oocore(ctx, nt, sg, want); err != nil {
		return err
	}
	return t.jobPhases(ctx, nt, shapesTTL, want)
}

// oocore measures governed ingest (spilling at the bulk-oocore budget) and
// F_dt over the spilled graph.
func (t *tracer) oocore(ctx context.Context, nt []byte, sg *shacl.Schema, want map[string][]byte) error {
	spillDir := filepath.Join(t.e.dir, "spill")
	defer os.RemoveAll(spillDir)
	root := t.rec.start("oocore", -1)
	govBase := liveHeap()
	gv := rdf.NewGovernor(rdf.SpillConfig{
		Dir:    spillDir,
		HighMB: oocoreBudgetMB,
		ReadHeap: func() uint64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc <= govBase {
				return 0
			}
			return ms.HeapAlloc - govBase
		},
	})
	g := rdf.NewGraph()
	var spillTime time.Duration
	n := 0
	ingest := t.rec.start("rdf.governed_ingest", root)
	sc := rio.NewNTriplesScanner(bytes.NewReader(nt), rio.Options{})
	for {
		tr, ok, err := sc.Scan()
		if err != nil {
			return err
		}
		if ok {
			g.Add(tr)
			n++
		}
		if n%4096 == 0 || !ok {
			id := t.rec.start("rdf.governor.maybe", ingest)
			spilled, err := gv.Maybe(g)
			d := t.rec.end(id)
			if err != nil {
				return err
			}
			if spilled {
				spillTime += d
			}
		}
		if !ok {
			break
		}
	}
	t.rec.end(ingest)
	t.set("rdf.spills", float64(gv.Spills()))
	t.set("rdf.spill_ms", float64(spillTime)/1e6)
	t.set("rdf.spill_bytes_per_triple", float64(dirSize(spillDir))/float64(n))
	live := liveHeap()
	t.set("heap.live_spilled_mb", float64(max(live, govBase)-govBase)/1e6)
	t.rep.attempted++
	if gv.Spills() == 0 {
		t.rep.fail("governed ingest at %d MiB never spilled", oocoreBudgetMB)
	}

	tr, err := core.NewTransformer(sg, core.Parsimonious)
	if err != nil {
		return err
	}
	d, err := t.rec.timed("core.fdt_spilled", root, func() error { return tr.ApplyContext(ctx, g, nil) })
	if err != nil {
		return err
	}
	t.rec.end(root)
	t.set("core.fdt_spilled_ns_per_triple", float64(d)/float64(n))
	got, err := exportOutputs(tr, 1)
	if err != nil {
		return err
	}
	t.rep.attempted++
	if err := sameOutputs(got, want); err != nil {
		t.rep.fail("spilled graph transform: %v", err)
	}
	return nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// jobPhases runs the bulk input as one daemon job and reads its phase
// timeline and checkpoint histogram.
func (t *tracer) jobPhases(ctx context.Context, nt []byte, shapesTTL string, want map[string][]byte) error {
	id := t.rec.start("daemon.job", -1)
	defer t.rec.end(id)
	d, err := startDaemon(ctx, t.e.s3pgd, filepath.Join(t.e.dir, "jobd"), 2, "-workers", "1")
	if err != nil {
		return err
	}
	defer t.stop(d)
	body, err := json.Marshal(map[string]string{"shapes": shapesTTL, "data": string(nt)})
	if err != nil {
		return err
	}
	t.rep.attempted++
	j, _, err := d.runJob(ctx, body)
	if err != nil {
		return err
	}
	at := make(map[string]time.Time)
	for _, ev := range j.Timeline {
		at[ev.Phase] = ev.At // the last occurrence wins
	}
	ms := func(a, b string) float64 { return float64(at[b].Sub(at[a])) / 1e6 }
	t.set("jobs.queue_ms", ms("queued", "running"))
	t.set("jobs.run_ms", ms("running", "commit"))
	t.set("jobs.commit_ms", ms("commit", "done"))
	snap, err := d.metrics(ctx)
	if err != nil {
		return err
	}
	t.set("jobs.checkpoint_ms", snap.Histograms["job.checkpoint.seconds"].Sum*1e3)
	got := make(map[string][]byte, len(outputNames))
	for _, n := range outputNames {
		if got[n], err = d.get(ctx, "/jobs/"+j.ID+"/output/"+n); err != nil {
			return err
		}
	}
	if err := sameOutputs(got, want); err != nil {
		t.rep.fail("job outputs: %v", err)
	}
	return nil
}

// metricsSnapshot is the registry part of GET /metrics (JSON form).
type metricsSnapshot struct {
	Counters   map[string]int64 `json:"counters"`
	Histograms map[string]struct {
		Count   int64   `json:"count"`
		Sum     float64 `json:"sum"`
		Buckets []struct {
			LE    string `json:"le"`
			Count int64  `json:"count"`
		} `json:"buckets"`
	} `json:"histograms"`
}

func (d *daemon) metrics(ctx context.Context) (*metricsSnapshot, error) {
	b, err := d.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	var doc struct {
		Metrics metricsSnapshot `json:"metrics"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	return &doc.Metrics, nil
}

// bucketCounts returns the per-bucket (not cumulative) observation counts
// of every histogram whose name starts with prefix, merged by bound.
func (s *metricsSnapshot) bucketCounts(prefix string) map[float64]int64 {
	out := make(map[float64]int64)
	for name, h := range s.Histograms {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		prev := int64(0)
		for _, b := range h.Buckets {
			le := math.Inf(1)
			if b.LE != "+Inf" {
				le, _ = strconv.ParseFloat(b.LE, 64)
			}
			out[le] += b.Count - prev
			prev = b.Count
		}
	}
	return out
}

// histP50Delta is the median of the observations made between two
// snapshots, interpolated within its bucket the way the daemon's own
// quantile estimate is. Bucket bounds double, so the lower bound of a
// bucket is half its upper bound.
func histP50Delta(before, after *metricsSnapshot, prefix string) float64 {
	a, b := after.bucketCounts(prefix), before.bucketCounts(prefix)
	var les []float64
	var total int64
	for le, c := range a {
		if d := c - b[le]; d > 0 {
			les = append(les, le)
			total += d
		}
	}
	sort.Float64s(les)
	rank := 0.5 * float64(total)
	var cum int64
	for _, le := range les {
		c := a[le] - b[le]
		if float64(cum+c) >= rank {
			if math.IsInf(le, 1) {
				return les[max(0, len(les)-2)]
			}
			lo := le / 2
			return lo + (le-lo)*(rank-float64(cum))/float64(c)
		}
		cum += c
	}
	return math.NaN()
}

// serveLayers times serve.Execute per shape on an in-process snapshot, and
// the two query parsers over the mix.
func (t *tracer) serveLayers(ctx context.Context, ds *dataset) error {
	root := t.rec.start("serve", -1)
	defer t.rec.end(root)
	snap, err := referenceSnapshot(ds, core.Parsimonious)
	if err != nil {
		return err
	}
	const reps = 5
	var cyParse, spParse []float64
	for _, s := range queryShapes(ds.g) {
		if _, err := serve.Execute(ctx, snap, s.req); err != nil { // warm-up
			return fmt.Errorf("%s: %w", s.name, err)
		}
		var xs []float64
		for i := 0; i < reps; i++ {
			d, err := t.rec.timed("serve.exec."+s.name, root, func() error {
				_, err := serve.Execute(ctx, snap, s.req)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			xs = append(xs, float64(d)/1e6)
			start := time.Now()
			if s.req.Lang == "cypher" {
				_, err = cypher.Parse(s.req.Query)
				cyParse = append(cyParse, float64(time.Since(start))/1e3)
			} else {
				_, err = sparql.Parse(s.req.Query)
				spParse = append(spParse, float64(time.Since(start))/1e3)
			}
			if err != nil {
				return err
			}
		}
		t.set("serve.exec_ms."+s.name, median(xs))
	}
	t.set("cypher.parse_us", median(cyParse))
	t.set("sparql.parse_us", median(spParse))
	return nil
}

// liveLayers replays a seeded mix of grow and churn batches through the
// delta layers in-process: update parsing, ApplyDelta, digest, WAL append,
// and the clones a fresh query snapshot needs.
func (t *tracer) liveLayers(ctx context.Context, ds *dataset) error {
	root := t.rec.start("live", -1)
	defer t.rec.end(root)
	sg, err := parseShapes(ds.shapesTTL)
	if err != nil {
		return err
	}
	g, err := rio.LoadNTriples(strings.NewReader(ds.nt))
	if err != nil {
		return err
	}
	batches, err := genBatches(g, 4, 8, t.e.seed)
	if err != nil {
		return err
	}
	st, err := core.NewDeltaState(g, sg, core.Parsimonious)
	if err != nil {
		return err
	}
	walDir := filepath.Join(t.e.dir, "wal")
	wlog, _, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		return err
	}
	defer wlog.Close()

	var parseUs, growMs, churnMs, digestMs, walMs []float64
	var stmts, changes int
	for i, b := range batches {
		var d *rdf.Delta
		dur, err := t.rec.timed("sparql.update_parse", root, func() error {
			var err error
			d, err = sparql.ParseUpdate(string(b.body))
			return err
		})
		if err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
		parseUs = append(parseUs, float64(dur)/1e3)
		var pd *core.PGDelta
		dur, err = t.rec.timed("core.apply", root, func() error {
			var err error
			pd, err = st.ApplyDelta(d)
			return err
		})
		if err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
		if b.churn {
			churnMs = append(churnMs, float64(dur)/1e6)
		} else {
			growMs = append(growMs, float64(dur)/1e6)
		}
		stmts += d.Len()
		changes += len(pd.Nodes) + len(pd.Edges)
		var digest string
		dur, err = t.rec.timed("core.digest", root, func() error {
			var err error
			digest, err = pd.Digest()
			return err
		})
		if err != nil {
			return err
		}
		digestMs = append(digestMs, float64(dur)/1e6)
		dur, err = t.rec.timed("wal.append", root, func() error {
			lsn, err := wlog.AppendUpdate(d.Encode())
			if err != nil {
				return err
			}
			return wlog.AppendApplied(lsn, []byte(digest))
		})
		if err != nil {
			return err
		}
		walMs = append(walMs, float64(dur)/1e6)
	}
	t.set("sparql.update_parse_us", median(parseUs))
	t.set("core.apply_grow_ms", median(growMs))
	t.set("core.apply_churn_ms", median(churnMs))
	t.set("core.fast_apply_ratio", float64(st.FastApplies())/float64(len(batches)))
	t.set("core.changes_per_stmt", float64(changes)/float64(stmts))
	t.set("core.digest_ms", median(digestMs))
	t.set("wal.append_ms", median(walMs))
	t.set("wal.bytes_per_stmt", float64(dirSize(walDir))/float64(stmts))

	var rdfMs, pgMs, snapMs []float64
	for i := 0; i < 3; i++ {
		var gc *rdf.Graph
		dur, _ := t.rec.timed("rdf.clone", root, func() error { gc = st.Graph().Clone(); return nil })
		rdfMs = append(rdfMs, float64(dur)/1e6)
		var sc = st.Store()
		dur, _ = t.rec.timed("pg.clone", root, func() error { sc = sc.Clone(); return nil })
		pgMs = append(pgMs, float64(dur)/1e6)
		dur, _ = t.rec.timed("serve.snapshot", root, func() error {
			serve.NewSnapshot(gc, sc, st.SchemaDDL(), uint64(len(batches)))
			return nil
		})
		snapMs = append(snapMs, float64(dur)/1e6)
	}
	t.set("rdf.clone_ms", median(rdfMs))
	t.set("pg.clone_ms", median(pgMs))
	t.set("serve.snapshot_ms", median(snapMs))

	// Oracle: the incrementally maintained exports equal a full transform.
	t.rep.attempted++
	store, schema, err := core.Transform(st.Graph(), sg, core.Parsimonious)
	if err != nil {
		return err
	}
	var wn, we, gn, ge bytes.Buffer
	if err := store.WriteCSV(&wn, &we); err != nil {
		return err
	}
	if err := st.WriteCSV(&gn, &ge); err != nil {
		return err
	}
	if !bytes.Equal(wn.Bytes(), gn.Bytes()) || !bytes.Equal(we.Bytes(), ge.Bytes()) || st.SchemaDDL() != pgschema.WriteDDL(schema) {
		t.rep.fail("ApplyDelta exports differ from core.Transform after %d batches", len(batches))
	}
	return nil
}

// daemonLayers drives a short query phase and a short update phase against
// a real s3pgd for the layers only the daemon shows: server service time,
// HTTP overhead, the snapshot cache, generator lateness and change-stream
// lag.
func (t *tracer) daemonLayers(ctx context.Context, ds *dataset) error {
	id := t.rec.start("daemon.serve", -1)
	defer t.rec.end(id)
	snap, err := referenceSnapshot(ds, core.Parsimonious)
	if err != nil {
		return err
	}
	shapes := queryShapes(ds.g)
	d, jobID, err := serveSetup(ctx, t.e, filepath.Join(t.e.dir, "served"), ds, "", func(*daemon, string) error { return nil })
	if err != nil {
		return err
	}
	defer t.stop(d)
	expect, err := referenceAnswers(shapes, snap)
	if err != nil {
		return err
	}
	cases, err := buildServeCases(shapes, expect, jobID)
	if err != nil {
		return err
	}
	for _, c := range cases {
		t.rep.attempted++
		if err := d.query(ctx, c.body, c.expect); err != nil {
			t.rep.fail("warm-up %s/%s: %v", c.shape, c.target, err)
		}
	}
	before, err := d.metrics(ctx)
	if err != nil {
		return err
	}
	st := runStep(ctx, d, cases, nominalQPS, ladderPerCase, t.e.nproc, t.e.seed)
	t.rep.count(st)
	after, err := d.metrics(ctx)
	if err != nil {
		return err
	}
	svc := histP50Delta(before, after, "serve.query.seconds") * 1e3
	t.set("server.service_p50_ms", svc)
	t.set("http.overhead_p50_ms", st.p50-svc)
	hits := after.Counters["serve.cache.hits"] - before.Counters["serve.cache.hits"]
	misses := after.Counters["serve.cache.misses"] - before.Counters["serve.cache.misses"]
	t.set("serve.cache.hit_ratio", float64(hits)/float64(max(1, hits+misses)))
	late, ok := percentile(st.lates, 0.90)
	if !ok {
		return fmt.Errorf("query phase too short for a p90 (%d requests)", st.n)
	}
	t.set("gen.late_p90_ms", late)

	// Change stream: grow batches on the live graph, each ack matched to
	// its /changes record.
	f, err := follow(ctx, d)
	if err != nil {
		return err
	}
	defer f.close()
	batches, err := genBatches(ds.g, 0, 10, t.e.seed+1)
	if err != nil {
		return err
	}
	var lags []float64
	for i, b := range batches {
		t.rep.attempted++
		var res server.UpdateResult
		if err := d.expect(ctx, http.MethodPost, "/graphs/bench/update", b.body, http.StatusAccepted, &res); err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
		acked := time.Now()
		if !f.waitFor(res.LSN, 10*time.Second) {
			t.rep.fail("/changes never delivered lsn %d", res.LSN)
			continue
		}
		f.mu.Lock()
		c := f.byLSN[res.LSN]
		f.mu.Unlock()
		if c.digest != res.Digest {
			t.rep.fail("/changes lsn %d digest differs from the ack", res.LSN)
		}
		lags = append(lags, float64(c.seen.Sub(acked))/1e6)
	}
	t.set("changes.lag_ms", median(lags))
	return nil
}
