package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
)

// dieWithParent has the kernel kill cmd's process when the benchmark's
// process ends, so that no child outlives a run even when the benchmark is
// itself killed before its deferred clean-up runs.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// clockTicks is USER_HZ, the unit of the utime and stime fields of
// /proc/<pid>/stat. Linux fixes it at 100 for user space on every
// architecture the benchmark runs on.
const clockTicks = 100

// parseStatCPU returns utime+stime in seconds from the contents of a
// /proc/<pid>/stat file. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("stat: no ')' in %q", stat)
	}
	// After ") " the fields start at field 3 (state); utime is field 14 and
	// stime field 15, i.e. indices 11 and 12 here.
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command name, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat: stime: %w", err)
	}
	return float64(utime+stime) / clockTicks, nil
}

// processCPU reads a process's user plus system CPU time in seconds.
func processCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseVmHWM returns the VmHWM line of a /proc/<pid>/status file in MB
// (10^6 bytes).
func parseVmHWM(status string) (float64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line[len("VmHWM:"):])
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status: VmHWM: %w", err)
		}
		return float64(kb) * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("status: no VmHWM line")
}

// peakRSS reads a process's high-water resident set size in MB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// cpuTicks is one reading of the first line of /proc/stat: the steal time
// of all CPUs — time the hypervisor ran another tenant while a vCPU of this
// machine had work — and their total time, both in USER_HZ ticks.
type cpuTicks struct{ steal, total uint64 }

// parseCPUTicks reads the aggregate "cpu" line of a /proc/stat file. The
// total is user through steal (fields 1–8); guest time is already counted
// inside user and nice.
func parseCPUTicks(stat string) (cpuTicks, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("/proc/stat: malformed first line %q", line)
	}
	var t cpuTicks
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}, fmt.Errorf("/proc/stat: field %d: %w", i+1, err)
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// readCPUTicks reads /proc/stat, or returns the zero reading where it
// cannot be read.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	t, _ := parseCPUTicks(string(b))
	return t
}

// stealShare is the share of the CPUs' time between readings a and b that
// the hypervisor stole, or 0 when the readings hold no time.
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
