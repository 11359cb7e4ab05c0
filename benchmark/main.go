// Command apds-benchmark is the repository benchmark of ApDeepSense. It
// drives the program from outside through three paths — offline scoring
// through the library, HTTP serving through examples/server, and the
// resident device-session fleet — checks every output it measures, and
// prints one JSON result line. README.md describes the workloads, metrics
// and reference figures; run.sh builds and starts it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// Paths every run measures. The workload named on the command line gets
// most of the run's time; the other paths get a smaller share, so that every
// run reports every end-to-end metric.
const (
	wScore   = "score"
	wGateway = "gateway"
	wFleet   = "fleet"
)

var allPaths = []string{wScore, wGateway, wFleet}

// workloads are the names --workload takes. The gateway path is measured in
// every run but is no workload of its own: two workloads leave time for
// runs long enough to hold steady on a shared host (README).
var workloads = []string{wScore, wFleet}

// Share of --seconds spent measuring the named path and each other path.
const (
	ownShare   = 0.5
	otherShare = 0.25
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string // built examples/server binary
	scratch  string // directory for run files (model file, fleet snapshot)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("apds-benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var repeat int
	var reference bool
	fs.StringVar(&o.workload, "workload", "", "workload to run: score, gateway or fleet (with --repeat also: all)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input and weight")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.server, "server", "", "examples/server binary built from the same tree")
	fs.StringVar(&o.scratch, "scratch", "", "directory for the run's files")
	fs.IntVar(&repeat, "repeat", 0, "run each workload this many times with seeds seed..seed+n-1 and print the spread of every metric")
	fs.BoolVar(&reference, "reference", false, "measure the README's reference figures instead of running a workload")
	var fleetWorker int
	fs.IntVar(&fleetWorker, "fleet-worker", 0, "internal: run the fleet path as a child process making this many set-ups")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "--trace %d: want 0 or 1\n", trace)
		return 2
	}
	if o.server == "" || o.scratch == "" {
		fmt.Fprintln(stderr, "--server and --scratch are required (run through benchmark/run.sh)")
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintf(stderr, "--seconds %d: want at least 1\n", o.seconds)
		return 2
	}
	switch {
	case fleetWorker > 0:
		if err := runFleetWorker(o, fleetWorker, o.scratch, os.Stdin, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "fleet worker: %v\n", err)
			return 1
		}
		return 0
	case reference:
		if err := runReference(o, stdout); err != nil {
			fmt.Fprintf(stderr, "reference: %v\n", err)
			return 1
		}
		return 0
	case repeat > 0:
		if err := runRepeat(o, repeat, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "repeat: %v\n", err)
			return 1
		}
		return 0
	}
	if !contains(workloads, o.workload) {
		fmt.Fprintf(stderr, "--workload %q: want one of %s\n", o.workload, strings.Join(workloads, ", "))
		return 2
	}
	res, err := runOnce(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// partOut is what one path of a run measured.
type partOut struct {
	e2e    map[string]float64 // end-to-end metrics of this path
	layer  map[string]float64 // per-layer metrics (traced runs only)
	setups []float64          // seconds of each set-up made
	peakMB float64            // high-water RSS of the process doing the work
}

// runCtx carries what every path of one run shares: options, the tallies of
// attempted and failed operations per phase, and the human-readable log.
type runCtx struct {
	o       options
	log     io.Writer
	phases  []string
	tallies map[string]*tally
	correct bool
	// shown bounds how many failure messages are printed per phase.
	shown map[string]int
}

type tally struct{ attempted, failed int64 }

func newRunCtx(o options, log io.Writer) *runCtx {
	return &runCtx{o: o, log: log, tallies: map[string]*tally{}, correct: true, shown: map[string]int{}}
}

func (rc *runCtx) tally(phase string) *tally {
	t, ok := rc.tallies[phase]
	if !ok {
		t = &tally{}
		rc.tallies[phase] = t
		rc.phases = append(rc.phases, phase)
	}
	return t
}

// op records one attempted operation of phase and whether it failed.
func (rc *runCtx) op(phase string, err error) {
	t := rc.tally(phase)
	t.attempted++
	if err != nil {
		t.failed++
		rc.note(phase, "operation failed: %v", err)
	}
}

// ops records n attempted operations of phase that all succeeded.
func (rc *runCtx) ops(phase string, n int64) { rc.tally(phase).attempted += n }

// check records one output check of phase. A failed check is a failed
// operation and makes the run's outputs incorrect.
func (rc *runCtx) check(phase string, ok bool, format string, args ...any) {
	t := rc.tally(phase)
	t.attempted++
	if !ok {
		t.failed++
		rc.correct = false
		rc.note(phase, "check failed: "+format, args...)
	}
}

func (rc *runCtx) note(phase, format string, args ...any) {
	if rc.shown[phase] >= 5 {
		return
	}
	rc.shown[phase]++
	fmt.Fprintf(rc.log, "# %s: %s\n", phase, fmt.Sprintf(format, args...))
}

func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(rc.log, "# "+format+"\n", args...)
}

// share is the part of the run's measuring time that goes to path w.
func (o options) share(w string) float64 {
	if w == o.workload {
		return ownShare
	}
	return otherShare
}

// slicer is one path of a run: the scheduler hands it slices of work until
// the run's time is spent and done reports its minimum work made.
type slicer interface {
	slice() error
	done() bool
}

func runOnce(o options, stdout io.Writer) (result, error) {
	rc := newRunCtx(o, stdout)
	stamp(rc)
	dir, err := os.MkdirTemp(o.scratch, "run-")
	if err != nil {
		return result{}, fmt.Errorf("run directory: %w", err)
	}
	defer os.RemoveAll(dir)

	// Set-up of every path; the named workload's path is set up several
	// times and setup_s is the median.
	score, err := newScorePath(rc)
	if err != nil {
		return result{}, fmt.Errorf("score set-up: %w", err)
	}
	gw, err := newGatewayPath(rc, dir)
	if err != nil {
		return result{}, fmt.Errorf("gateway set-up: %w", err)
	}
	defer gw.close()
	fleet, err := newFleetPath(rc, dir)
	if err != nil {
		return result{}, fmt.Errorf("fleet set-up: %w", err)
	}
	defer fleet.close()

	// Measure: slices of the three paths interleave, each next slice going
	// to the path furthest below its share of the time spent so far, so a
	// slow spell of the host falls on every path alike instead of on one.
	paths := map[string]slicer{wScore: score, wGateway: gw, wFleet: fleet}
	spent := map[string]time.Duration{}
	ticks0 := readCPUTicks()
	start := time.Now()
	for {
		over := time.Since(start) >= time.Duration(o.seconds)*time.Second
		pick := ""
		for _, w := range allPaths {
			if over && paths[w].done() {
				continue
			}
			if pick == "" || spent[w].Seconds()/o.share(w) < spent[pick].Seconds()/o.share(pick) {
				pick = w
			}
		}
		if pick == "" {
			break
		}
		t := time.Now()
		if err := paths[pick].slice(); err != nil {
			return result{}, fmt.Errorf("%s: %w", pick, err)
		}
		spent[pick] += time.Since(t)
	}
	rc.logf("measured %.1f s: score %.1f s, gateway %.1f s, fleet %.1f s", time.Since(start).Seconds(),
		spent[wScore].Seconds(), spent[wGateway].Seconds(), spent[wFleet].Seconds())
	// Runs with several per cent of steal are the slow outliers (README).
	rc.logf("hypervisor steal while measuring: %.1f %% of the CPUs' time", 100*stealShare(ticks0, readCPUTicks()))

	parts := map[string]partOut{}
	if parts[wScore], err = score.finish(); err != nil {
		return result{}, fmt.Errorf("score: %w", err)
	}
	if parts[wGateway], err = gw.finish(); err != nil {
		return result{}, fmt.Errorf("gateway: %w", err)
	}
	if parts[wFleet], err = fleet.finish(); err != nil {
		return result{}, fmt.Errorf("fleet: %w", err)
	}

	res := result{Correct: rc.correct, Metrics: map[string]metricValue{}}
	for _, ph := range rc.phases {
		t := rc.tallies[ph]
		rc.logf("phase %-22s attempted %9d failed %d", ph, t.attempted, t.failed)
		res.Attempted += t.attempted
		res.Failed += t.failed
	}
	e2e := map[string]float64{"setup_s": median(parts[o.workload].setups), "peak_rss_mb": parts[o.workload].peakMB}
	layer := map[string]float64{}
	for _, w := range allPaths {
		for k, v := range parts[w].e2e {
			e2e[k] = v
		}
		for k, v := range parts[w].layer {
			layer[k] = v
		}
	}
	report, table := e2e, endToEndUnits
	if o.trace {
		rc.logf("traced run: end-to-end figures of this run follow; the JSON line holds the per-layer metrics")
		printMetrics(rc, e2e, endToEndUnits)
		report, table = layer, perLayerUnits
	}
	for name, unit := range table {
		v, ok := report[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unit}
	}
	return res, nil
}

func printMetrics(rc *runCtx, m map[string]float64, units map[string]string) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		rc.logf("  %-40s %14.6g %s", k, m[k], units[k])
	}
}
