package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// The fleet path runs in a child process of the benchmark, driven over its
// standard input one command per line: "stream" and "copy" run one slice
// and answer "ok"; "finish" answers with the path's result as one JSON line
// and exits. The child's log lines go to the benchmark's log.

// workerReport is the fleet child's final line.
type workerReport struct {
	Correct bool                `json:"correct"`
	Phases  []string            `json:"phases"`
	Tallies map[string][2]int64 `json:"tallies"` // phase → attempted, failed
	E2E     map[string]float64  `json:"e2e"`
	Layer   map[string]float64  `json:"layer"`
	Setups  []float64           `json:"setups"`
	PeakMB  float64             `json:"peak_mb"`
}

// runFleetWorker is the child side.
func runFleetWorker(o options, setups int, dir string, stdin io.Reader, stdout, log io.Writer) error {
	rc := newRunCtx(o, log)
	w, err := newFleetWorker(rc, dir, setups)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "ready")
	sc := bufio.NewScanner(stdin)
	for sc.Scan() {
		switch cmd := sc.Text(); cmd {
		case "stream":
			w.stream()
		case "copy":
			if _, err := w.copyFleet(); err != nil {
				return err
			}
		case "finish":
			out, err := w.finish()
			if err != nil {
				return err
			}
			rep := workerReport{Correct: rc.correct, Phases: rc.phases, Tallies: map[string][2]int64{},
				E2E: out.e2e, Layer: out.layer, Setups: out.setups, PeakMB: out.peakMB}
			for ph, t := range rc.tallies {
				rep.Tallies[ph] = [2]int64{t.attempted, t.failed}
			}
			b, err := json.Marshal(rep)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, string(b))
			return nil
		default:
			return fmt.Errorf("unknown command %q", cmd)
		}
		fmt.Fprintln(stdout, "ok")
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return io.ErrUnexpectedEOF
}

// fleetPath is the benchmark's side of the fleet child.
type fleetPath struct {
	rc      *runCtx
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	stdout  *bufio.Reader
	streams int
	copies  int
	ended   bool
}

func newFleetPath(rc *runCtx, dir string) (*fleetPath, error) {
	o := rc.o
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	setups := 1
	if o.workload == wFleet {
		setups = fleetSetups
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "--fleet-worker", strconv.Itoa(setups), "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10), "--seconds", strconv.Itoa(o.seconds), "--trace", trace,
		"--server", o.server, "--scratch", dir)
	cmd.Stderr = rc.log
	dieWithParent(cmd)
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start fleet worker: %w", err)
	}
	p := &fleetPath{rc: rc, cmd: cmd, stdin: in, stdout: bufio.NewReaderSize(out, 1<<16)}
	if err := p.expect("ready"); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *fleetPath) expect(want string) error {
	line, err := p.stdout.ReadString('\n')
	if err != nil {
		return fmt.Errorf("fleet worker: %w", err)
	}
	if got := strings.TrimSpace(line); got != want {
		return fmt.Errorf("fleet worker said %q, want %q", got, want)
	}
	return nil
}

func (p *fleetPath) send(cmd string) error {
	if _, err := io.WriteString(p.stdin, cmd+"\n"); err != nil {
		return fmt.Errorf("fleet worker: %w", err)
	}
	return nil
}

// minStreams is the stream slices every run makes.
const minStreams = fleetMinRounds / fleetStride * fleetChunks

// done reports whether the fleet has streamed its minimum in whole blocks
// and made its timed copies.
func (p *fleetPath) done() bool {
	return p.streams >= minStreams && p.streams%fleetChunks == 0 && p.copies >= fleetCopies
}

// slice runs one stream slice, or a timed snapshot-and-restore copy after
// every fleetCopyEvery stream slices and when the run owes copies.
func (p *fleetPath) slice() error {
	cmd := "stream"
	if p.streams >= (p.copies+1)*fleetCopyEvery ||
		p.streams%fleetChunks == 0 && p.streams >= minStreams && p.copies < fleetCopies {
		cmd = "copy"
	}
	if err := p.send(cmd); err != nil {
		return err
	}
	if err := p.expect("ok"); err != nil {
		return err
	}
	if cmd == "copy" {
		p.copies++
	} else {
		p.streams++
	}
	return nil
}

func (p *fleetPath) finish() (partOut, error) {
	if err := p.send("finish"); err != nil {
		return partOut{}, err
	}
	line, err := p.stdout.ReadString('\n')
	if err != nil {
		return partOut{}, fmt.Errorf("fleet worker: %w", err)
	}
	var rep workerReport
	if err := json.Unmarshal([]byte(line), &rep); err != nil {
		return partOut{}, fmt.Errorf("fleet worker report: %w", err)
	}
	if err := p.cmd.Wait(); err != nil {
		return partOut{}, fmt.Errorf("fleet worker: %w", err)
	}
	p.ended = true
	rc := p.rc
	for _, ph := range rep.Phases {
		t := rc.tally(ph)
		t.attempted += rep.Tallies[ph][0]
		t.failed += rep.Tallies[ph][1]
	}
	rc.correct = rc.correct && rep.Correct
	return partOut{e2e: rep.E2E, layer: rep.Layer, setups: rep.Setups, peakMB: rep.PeakMB}, nil
}

// close ends the child if finish did not, and waits for it.
func (p *fleetPath) close() {
	if p.ended {
		return
	}
	p.stdin.Close()
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
	p.ended = true
}
