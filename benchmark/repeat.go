package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the repeat command reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRepeat runs each workload n times as child processes, with seeds
// o.seed .. o.seed+n-1, and prints each metric's median, quartiles and
// relative spread, next to its bound in BENCHMARK.json when that file is in
// the working directory.
func runRepeat(o options, n int, stdout, stderr io.Writer) error {
	ws := []string{o.workload}
	if o.workload == "all" {
		ws = workloads
	} else if !contains(workloads, o.workload) {
		return fmt.Errorf("--workload %q: want one of %s or all", o.workload, strings.Join(workloads, ", "))
	}
	bounds := map[string]float64{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	for _, w := range ws {
		values := map[string][]float64{}
		units := map[string]string{}
		var shares []string
		for i := 0; i < n; i++ {
			seed := o.seed + int64(i)
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(o.seconds), "--trace", trace, "--server", o.server, "--scratch", o.scratch)
			var buf bytes.Buffer
			cmd.Stdout = &buf
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			res, err := lastResult(buf.Bytes())
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			if !res.Correct {
				fmt.Fprintf(stdout, "%s seed %d: outputs INCORRECT\n", w, seed)
			}
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			fmt.Fprintf(stderr, "%s seed %d done\n", w, seed)
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
				units[k] = v.Unit
			}
		}
		fmt.Fprintf(stdout, "workload %s: %d runs, trace=%s, seconds=%d, failed/attempted per run: %s\n",
			w, n, trace, o.seconds, strings.Join(shares, " "))
		names := make([]string, 0, len(values))
		for k := range values {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(stdout, "  %-40s %-6s %14s %14s %14s %8s %7s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
		for _, k := range names {
			q1, med, q3 := quartiles(values[k])
			line := fmt.Sprintf("  %-40s %-6s %14.6g %14.6g %14.6g %7.2f%%", k, units[k], q1, med, q3, 100*relSpread(values[k]))
			if b, ok := bounds[k]; ok {
				verdict := "ok"
				if relSpread(values[k]) > b/3 && k != "setup_s" {
					verdict = "WIDE"
				}
				line += fmt.Sprintf(" %6.0f%% %s", 100*b, verdict)
			}
			fmt.Fprintln(stdout, line)
		}
	}
	return nil
}

// lastResult decodes the result JSON on the last non-empty line of out.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("last output line is not a result: %w", err)
	}
	return res, nil
}
