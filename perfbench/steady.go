package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// runSteady runs the timed benchmark n times per workload, each with a
// different seed, as fresh child processes exactly as an outside harness
// would, and prints for every workload × end-to-end metric the median,
// quartiles, sample count and spread next to the metric's bound. A spread
// above the bound is flagged, and so is one above a third of it (the margin
// a benchmark should keep).
func runSteady(spec *benchSpec, bin, only string, n, seconds int, w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := spec.workloadNames()
	if only != "" {
		names = []string{only}
	}
	over := 0
	for _, wl := range names {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			seed := int64(101 + i)
			start := time.Now()
			res, err := runChild(self, bin, wl, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s seed %d: correct=%v, %d of %d failed", wl, seed, res.Correct, res.Failed, res.Attempted)
			}
			var parts []string
			for _, m := range spec.EndToEnd {
				v := res.Metrics[m.Name].Value
				values[m.Name] = append(values[m.Name], v)
				parts = append(parts, fmt.Sprintf("%s=%.4g", m.Name, v))
			}
			fmt.Fprintf(w, "%s seed %d (%.0fs): %s\n", wl, seed, time.Since(start).Seconds(), strings.Join(parts, " "))
		}
		fmt.Fprintf(w, "\n%-12s %-18s %12s %12s %12s %3s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "n", "spread", "bound")
		for _, m := range spec.EndToEnd {
			xs := values[m.Name]
			q1, q2, q3, _ := quartiles(xs)
			sp, _ := spread(xs)
			flag := ""
			switch {
			case sp > m.Bound && m.Name != "setup_s":
				flag = "  OVER BOUND"
				over++
			case sp > m.Bound/3:
				flag = "  above bound/3"
			}
			fmt.Fprintf(w, "%-12s %-18s %12.4f %12.4f %12.4f %3d %7.2f%% %5.0f%%%s\n",
				wl, m.Name, q1, q2, q3, len(xs), 100*sp, 100*m.Bound, flag)
		}
		fmt.Fprintln(w)
	}
	if over > 0 {
		return fmt.Errorf("%d workload × metric spread(s) exceed their bound", over)
	}
	return nil
}

// runChild runs one timed benchmark process and parses its result line.
func runChild(self, bin, workload string, seed int64, seconds int) (result, error) {
	var res result
	cmd := exec.Command(self, "--bin", bin, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("%w: %s", err, lastLine(stderr.String()))
	}
	if err := json.Unmarshal([]byte(lastLine(stdout.String())), &res); err != nil {
		return res, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}
