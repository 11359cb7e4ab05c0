package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// promSample maps each series of a Prometheus text exposition, keyed by its
// name plus label set exactly as written (e.g.
// `apds_propagate_layer_seconds_sum{layer="0"}`), to its value.
type promSample map[string]float64

// parsePromText reads the sample lines of a Prometheus text exposition.
// Comment and blank lines are skipped; a trailing timestamp is ignored.
func parsePromText(text string) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// Label values may hold spaces, so the series ends at the closing
		// brace when there is one.
		rest := line
		key := ""
		if i := strings.IndexByte(line, '{'); i >= 0 && i < strings.IndexByte(line+" ", ' ') {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("metrics line %d: unclosed label set", n)
			}
			key, rest = line[:j+1], line[j+1:]
		} else {
			f := strings.Fields(line)
			key, rest = f[0], strings.Join(f[1:], " ")
		}
		f := strings.Fields(rest)
		if len(f) < 1 || len(f) > 2 {
			return nil, fmt.Errorf("metrics line %d: want a value and an optional timestamp, got %q", n, rest)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return out, nil
}

// family sums every series of one metric name, across all label sets.
func (p promSample) family(name string) float64 {
	var s float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// promDelta returns after − before for one metric family; counters and
// histogram sums only grow, so the delta is the activity in between.
func promDelta(before, after promSample, name string) float64 {
	return after.family(name) - before.family(name)
}

// histMeanDelta is the mean observation of a histogram between two scrapes:
// Δ<name>_sum / Δ<name>_count. ok is false when nothing was observed.
func histMeanDelta(before, after promSample, name string) (float64, bool) {
	dc := promDelta(before, after, name+"_count")
	if dc <= 0 {
		return 0, false
	}
	return promDelta(before, after, name+"_sum") / dc, true
}
