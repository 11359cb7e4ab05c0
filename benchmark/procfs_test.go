package main

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and a ')' must not shift the fields.
	stat := "4242 (apds server) x) S 1 4242 4242 0 -1 4194560 1290 0 0 0 250 37 0 0 20 0 9 0 123 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2.87; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "12 (x S 1", "12 (x) S 1 2 3", "12 (x) S 1 2 3 4 5 6 7 8 9 10 u 11"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted a malformed line", bad)
		}
	}
}

func TestProcessCPUSelf(t *testing.T) {
	cpu, err := processCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if cpu < 0 {
		t.Errorf("cpu = %v", cpu)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2000 kB\nVmRSS:\t  1500 kB\n"
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2.048; got != want {
		t.Errorf("VmHWM = %v MB, want %v", got, want)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("missing VmHWM accepted")
	}
	if _, err := peakRSS(os.Getpid()); err != nil {
		t.Error(err)
	}
}

func TestParseCPUTicks(t *testing.T) {
	stat := "cpu  698766 0 57074 2443273 7605 0 16619 33915 12 0\ncpu0 348534 0 30084 1220469 3661 0 8321 17719 0 0\n"
	got, err := parseCPUTicks(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := (cpuTicks{steal: 33915, total: 698766 + 57074 + 2443273 + 7605 + 16619 + 33915}); got != want {
		t.Errorf("ticks = %+v, want %+v", got, want)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 3 4 5 6 7 x"} {
		if _, err := parseCPUTicks(bad); err == nil {
			t.Errorf("parseCPUTicks(%q) accepted a malformed line", bad)
		}
	}
	if now := readCPUTicks(); now.total == 0 {
		t.Error("reading /proc/stat gave no CPU time")
	}
}

func TestStealShare(t *testing.T) {
	a := cpuTicks{steal: 100, total: 1000}
	if got := stealShare(a, cpuTicks{steal: 103, total: 1040}); got != 3.0/40 {
		t.Errorf("stealShare = %v, want %v", got, 3.0/40)
	}
	if got := stealShare(a, cpuTicks{}); got != 0 {
		t.Errorf("stealShare over an unreadable reading = %v, want 0", got)
	}
}
