package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"
)

// Bulk input: the DBpedia2022 profile at this scale is about 232k triples
// (27.6 MB of N-Triples). The governed run's heap budget is fixed so that
// the in-RAM graph is more than 3× the budget.
const (
	bulkScale      = 0.001
	oocoreBudgetMB = 8
	minBulkRounds  = 3
	setupRepeats   = 5
)

// outputNames are the three files every transform path must produce.
var outputNames = []string{"nodes.csv", "edges.csv", "schema.ddl"}

// transformArgs are the `s3pg data` arguments writing into dir.
func transformArgs(shapes, data, dir string, extra ...string) []string {
	args := []string{"data", "-shapes", shapes, "-data", data,
		"-nodes", filepath.Join(dir, "nodes.csv"),
		"-edges", filepath.Join(dir, "edges.csv"),
		"-schema", filepath.Join(dir, "schema.ddl")}
	return append(args, extra...)
}

func readOutputs(dir string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(outputNames))
	for _, n := range outputNames {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		out[n] = b
	}
	return out, nil
}

// sameOutputs compares one path's outputs with the reference and names the
// first file that differs.
func sameOutputs(got, want map[string][]byte) error {
	for _, n := range outputNames {
		if !bytes.Equal(got[n], want[n]) {
			return fmt.Errorf("%s differs from the -workers 1 run (%d vs %d bytes)", n, len(got[n]), len(want[n]))
		}
	}
	return nil
}

// cliOutputsMatch checks the files a CLI run left in dir and removes them.
func cliOutputsMatch(dir string, want map[string][]byte) error {
	got, err := readOutputs(dir)
	if err != nil {
		return err
	}
	for _, n := range outputNames {
		os.Remove(filepath.Join(dir, n))
	}
	return sameOutputs(got, want)
}

var spillsRE = regexp.MustCompile(`ran out-of-core: (\d+) spill`)

// spillCount reads the governed run's spill count from its stderr summary.
func spillCount(stderr string) int {
	m := spillsRE.FindStringSubmatch(stderr)
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// bulkSetup runs `s3pg extract` (and, with a daemon, starts s3pgd) several
// times and keeps the last daemon. Set-up time is the median.
func bulkSetup(ctx context.Context, e *env, rep *report, data, shapes string, withDaemon bool) (*daemon, error) {
	var times []float64
	var first []byte
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		rep.attempted++
		if _, err := runCLI(ctx, e.dir, e.s3pg, "extract", "-data", data, "-out", shapes); err != nil {
			return nil, err
		}
		if withDaemon {
			var err error
			if d, err = startDaemon(ctx, e.s3pgd, filepath.Join(e.dir, fmt.Sprintf("daemon%d", i)), 2, "-workers", "1"); err != nil {
				return nil, err
			}
		}
		times = append(times, time.Since(start).Seconds())
		if withDaemon && i < setupRepeats-1 {
			_, err := d.stop()
			if d = nil; err != nil {
				return nil, err
			}
		}
		b, err := os.ReadFile(shapes)
		if err != nil {
			if d != nil {
				d.stop()
			}
			return nil, err
		}
		if first == nil {
			first = b
		} else if !bytes.Equal(b, first) {
			rep.fail("s3pg extract produced different shapes on repeat %d", i)
		}
	}
	rep.setup(times)
	return d, nil
}

// writeBulkInput generates the seeded bulk dataset into dir.
func writeBulkInput(e *env) (path string, triples int, err error) {
	nt, triples, err := genNTriples(bulkScale, e.seed)
	if err != nil {
		return "", 0, err
	}
	path = filepath.Join(e.dir, "data.nt")
	return path, triples, os.WriteFile(path, nt, 0o644)
}

// runBulk is the bulk workload: the same input through `s3pg data -workers
// 1`, `s3pg data -workers nproc` and a daemon job, every output checked
// against the -workers 1 run.
func runBulk(ctx context.Context, e *env, rep *report) error {
	data, triples, err := writeBulkInput(e)
	if err != nil {
		return err
	}
	shapes := filepath.Join(e.dir, "shapes.ttl")
	d, err := bulkSetup(ctx, e, rep, data, shapes, true)
	if err != nil {
		return err
	}
	defer func() {
		rss, err := d.stop()
		if err != nil {
			rep.fail("s3pgd exit: %v", err)
		}
		rep.info("daemon.peak_rss_mb", "MB", rss, 1)
	}()

	// Untimed warm-up, which is also the reference every path must match.
	ref := filepath.Join(e.dir, "ref")
	if err := os.MkdirAll(ref, 0o755); err != nil {
		return err
	}
	rep.attempted++
	if _, err := runCLI(ctx, e.dir, e.s3pg, transformArgs(shapes, data, ref, "-workers", "1")...); err != nil {
		return err
	}
	want, err := readOutputs(ref)
	if err != nil {
		return err
	}
	shapesTTL, err := os.ReadFile(shapes)
	if err != nil {
		return err
	}
	nt, err := os.ReadFile(data)
	if err != nil {
		return err
	}
	body, err := json.Marshal(map[string]string{"shapes": string(shapesTTL), "data": string(nt)})
	if err != nil {
		return err
	}
	nt = nil

	out := filepath.Join(e.dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	var seqS, parS, jobS, rss []float64
	deadline := time.Now().Add(e.seconds)
	for round := 0; round < minBulkRounds || time.Now().Before(deadline); round++ {
		rep.attempted++
		r, err := runCLI(ctx, e.dir, e.s3pg, transformArgs(shapes, data, out, "-workers", "1")...)
		if err != nil {
			return err
		}
		if err := cliOutputsMatch(out, want); err != nil {
			rep.fail("-workers 1: %v", err)
		}
		seqS = append(seqS, r.wall.Seconds())
		rss = append(rss, r.maxRSSMB)

		rep.attempted++
		r, err = runCLI(ctx, e.dir, e.s3pg, transformArgs(shapes, data, out, "-workers", strconv.Itoa(e.nproc))...)
		if err != nil {
			return err
		}
		if err := cliOutputsMatch(out, want); err != nil {
			rep.fail("-workers %d: %v", e.nproc, err)
		}
		parS = append(parS, r.wall.Seconds())

		rep.attempted++
		j, took, err := d.runJob(ctx, body)
		if err != nil {
			return err
		}
		jobS = append(jobS, took.Seconds())
		got := make(map[string][]byte, len(outputNames))
		for _, n := range outputNames {
			if got[n], err = d.get(ctx, "/jobs/"+j.ID+"/output/"+n); err != nil {
				return err
			}
		}
		if err := sameOutputs(got, want); err != nil {
			rep.fail("job %s: %v", j.ID, err)
		}
	}

	tps := float64(triples) / median(seqS)
	rep.e2e("throughput_per_s", tps)
	rep.e2e("latency_p50_ms", median(jobS)*1e3)
	rep.e2e("peak_rss_mb", median(rss))
	rep.info("transform_triples_per_s", "1/s", tps, len(seqS))
	rep.info("transform_par_triples_per_s", "1/s", float64(triples)/median(parS), len(parS))
	rep.info("job_triples_per_s", "1/s", float64(triples)/median(jobS), len(jobS))
	rep.info("peak_rss_mb", "MB", median(rss), len(rss))
	rep.note("input: %d triples; -workers %d for the parallel run; job/CLI time ratio %.2f",
		triples, e.nproc, median(jobS)/median(seqS))
	return nil
}

// runBulkOocore is the bulk-oocore workload: the bulk input through `s3pg
// data -workers 1 -max-mem B`, so the graph spills to disk and the
// transform reads it out-of-core.
func runBulkOocore(ctx context.Context, e *env, rep *report) error {
	data, triples, err := writeBulkInput(e)
	if err != nil {
		return err
	}
	shapes := filepath.Join(e.dir, "shapes.ttl")
	if _, err := bulkSetup(ctx, e, rep, data, shapes, false); err != nil {
		return err
	}
	ref := filepath.Join(e.dir, "ref")
	if err := os.MkdirAll(ref, 0o755); err != nil {
		return err
	}
	rep.attempted++
	if _, err := runCLI(ctx, e.dir, e.s3pg, transformArgs(shapes, data, ref, "-workers", "1")...); err != nil {
		return err
	}
	want, err := readOutputs(ref)
	if err != nil {
		return err
	}
	out := filepath.Join(e.dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	spillDir := filepath.Join(e.dir, "spill")
	var wall, rss, spills []float64
	deadline := time.Now().Add(e.seconds)
	for i := 0; i < minBulkRounds || time.Now().Before(deadline); i++ {
		rep.attempted++
		r, err := runCLI(ctx, e.dir, e.s3pg, transformArgs(shapes, data, out, "-workers", "1",
			"-max-mem", strconv.Itoa(oocoreBudgetMB), "-spill", spillDir)...)
		if err != nil {
			return err
		}
		if err := cliOutputsMatch(out, want); err != nil {
			rep.fail("-max-mem %d: %v", oocoreBudgetMB, err)
		}
		n := spillCount(r.stderr)
		if n == 0 {
			rep.fail("-max-mem %d run %d never spilled, so the spill layer went unmeasured", oocoreBudgetMB, i)
		}
		os.RemoveAll(spillDir)
		wall = append(wall, r.wall.Seconds())
		rss = append(rss, r.maxRSSMB)
		spills = append(spills, float64(n))
	}
	tps := float64(triples) / median(wall)
	rep.e2e("throughput_per_s", tps)
	rep.e2e("latency_p50_ms", median(wall)*1e3)
	rep.e2e("peak_rss_mb", median(rss))
	rep.info("transform_triples_per_s", "1/s", tps, len(wall))
	rep.info("peak_rss_mb", "MB", median(rss), len(rss))
	rep.note("input: %d triples under -max-mem %d MiB; spills per invocation %v", triples, oocoreBudgetMB, spills)
	return nil
}
