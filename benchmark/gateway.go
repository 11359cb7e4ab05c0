package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/datasets"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/oracle"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// Shape of the gateway path: a seeded 5-128×4-1 ReLU network served by
// examples/server, NYCommute-shaped rows, a closed loop of gwConns client
// connections, single-row requests then gwBatchRows-row requests.
const (
	gwRows       = 1024
	gwHidden     = 128
	gwConns      = 2
	gwBatchRows  = 32
	gwMinSlices  = 2 // slices every run makes, whatever its budget
	gwBurst      = 100 * time.Millisecond
	gwWarmup     = 200 * time.Millisecond
	gwOracleReqs = 4   // sampled responses per phase held to the oracle
	gwSampleFrom = 256 // sampled among the first bodies, which every run sends
	gwReadyLimit = 60 * time.Second
)

// gwResult is the part of a predict reply the oracle check reads.
type gwResult struct {
	Mean    []float64 `json:"mean"`
	Std     []float64 `json:"std"`
	Results []struct {
		Mean []float64 `json:"mean"`
		Std  []float64 `json:"std"`
	} `json:"results"`
}

// server is one running examples/server child.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

func startServer(bin, model string) (*server, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-model", model)
	dieWithParent(cmd)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	for {
		select {
		case err := <-s.done:
			s.done <- err
			return nil, 0, fmt.Errorf("server exited before ready: %v", err)
		default:
		}
		if resp, err := probe.Get(s.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > gwReadyLimit {
			s.stop()
			return nil, 0, fmt.Errorf("server not ready after %v", gwReadyLimit)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks the server to drain and exit, kills it if it does not within
// ten seconds, and waits until it has ended.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

func (s *server) scrape(c *http.Client) (promSample, error) {
	resp, err := c.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parsePromText(string(b))
}

// gwPhase is one request shape: its request bodies, the rows each request
// carries, and what came back over the run.
type gwPhase struct {
	name   string
	bodies [][]byte
	first  []int // index of each request's first row
	rows   int   // rows per request

	lat    []float64 // client latency per request, µs
	host   []float64 // response host_micros per request
	rates  []float64 // rows answered per second, per slice
	served int64     // rows answered
	next   int       // next request body
	// sampled request index → raw reply, for the oracle check
	sample map[int][]byte

	// traced runs: /metrics, server CPU and client CPU around each slice
	metrics  map[string]float64
	cpuSrv   float64
	cpuSelf  float64
	requests int64
	scrape   time.Duration
}

// gatewayPath is the HTTP path: a closed loop of gwConns connections into
// examples/server, one single-row burst and one batch burst per slice.
type gatewayPath struct {
	rc          *runCtx
	srv         *server
	client      *http.Client
	tr          *http.Transport
	url         string
	fingerprint string
	served      *nn.Network
	rows        []tensor.Vector
	single      *gwPhase
	batch       *gwPhase
	slices      int
	setups      []float64
}

func newGatewayPath(rc *runCtx, dir string) (*gatewayPath, error) {
	o := rc.o
	model, err := nn.New(nn.Config{
		InputDim: 5, Hidden: []int{gwHidden, gwHidden, gwHidden, gwHidden}, OutputDim: 1,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity, KeepProb: scoreKeep, Seed: o.seed + 10,
	})
	if err != nil {
		return nil, err
	}
	modelPath := filepath.Join(dir, "gateway-model.json")
	if err := model.SaveFile(modelPath); err != nil {
		return nil, err
	}
	p := &gatewayPath{rc: rc}
	if p.served, err = nn.LoadFile(modelPath); err != nil {
		return nil, err
	}
	p.fingerprint = p.served.Fingerprint()
	d, err := datasets.NYCommute(datasets.Size{Train: gwRows, Val: 1, Test: 1, Seed: o.seed})
	if err != nil {
		return nil, fmt.Errorf("nycommute inputs: %w", err)
	}
	p.rows = make([]tensor.Vector, gwRows)
	for i := range p.rows {
		p.rows[i] = d.Train[i].X
	}

	// One timed start: more starts while the score path's set-up garbage
	// is being collected made the benchmark process's peak RSS vary by a
	// fifth between runs.
	s, t, err := startServer(o.server, modelPath)
	if err != nil {
		return nil, err
	}
	p.srv, p.setups = s, []float64{t.Seconds()}

	rng := rand.New(rand.NewSource(o.seed ^ 0x9a7e))
	p.single = &gwPhase{name: "single", rows: 1, metrics: map[string]float64{}}
	for i, x := range p.rows {
		b, _ := json.Marshal(map[string]any{"input": x})
		p.single.bodies = append(p.single.bodies, b)
		p.single.first = append(p.single.first, i)
	}
	p.batch = &gwPhase{name: "batch", rows: gwBatchRows, metrics: map[string]float64{}}
	for lo := 0; lo+gwBatchRows <= gwRows; lo += gwBatchRows {
		b, _ := json.Marshal(map[string]any{"inputs": p.rows[lo : lo+gwBatchRows]})
		p.batch.bodies = append(p.batch.bodies, b)
		p.batch.first = append(p.batch.first, lo)
	}
	for _, ph := range []*gwPhase{p.single, p.batch} {
		ph.sample = map[int][]byte{}
		for len(ph.sample) < gwOracleReqs {
			ph.sample[rng.Intn(min(len(ph.bodies), gwSampleFrom))] = nil
		}
	}
	p.tr = &http.Transport{MaxIdleConns: gwConns, MaxIdleConnsPerHost: gwConns, MaxConnsPerHost: gwConns, DisableCompression: true}
	p.client = &http.Client{Transport: p.tr, Timeout: 30 * time.Second}
	p.url = p.srv.base + "/v1/models/default/predict"
	// Warm-up: connections, server-side pools, the client's own code.
	for _, ph := range []*gwPhase{p.single, p.batch} {
		p.burst(ph, gwWarmup, false)
	}
	return p, nil
}

func (p *gatewayPath) close() {
	p.tr.CloseIdleConnections()
	p.srv.stop()
}

func (p *gatewayPath) done() bool { return p.slices >= gwMinSlices }

// slice runs one single-row burst and one batch burst.
func (p *gatewayPath) slice() error {
	p.slices++
	for _, ph := range []*gwPhase{p.single, p.batch} {
		if err := p.tracedBurst(ph); err != nil {
			return err
		}
	}
	return nil
}

// tracedBurst is burst bracketed, in a traced run, by /metrics scrapes and
// CPU readings of the server and of this process.
func (p *gatewayPath) tracedBurst(ph *gwPhase) error {
	if !p.rc.o.trace {
		p.burst(ph, gwBurst, true)
		return nil
	}
	t := time.Now()
	m0, err := p.srv.scrape(p.client)
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	ph.scrape += time.Since(t)
	cpu0, err := processCPU(p.srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	self0 := selfCPU()
	reqs := p.burst(ph, gwBurst, true)
	self1 := selfCPU()
	cpu1, err := processCPU(p.srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	t = time.Now()
	m1, err := p.srv.scrape(p.client)
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	ph.scrape += time.Since(t)
	for _, name := range []string{
		"apds_serve_batch_rows_sum", "apds_serve_batch_rows_count",
		"apds_serve_queue_wait_seconds_sum", "apds_serve_queue_wait_seconds_count",
		"apds_propagate_layer_seconds_sum",
	} {
		ph.metrics[name] += promDelta(m0, m1, name)
	}
	ph.cpuSrv += cpu1 - cpu0
	ph.cpuSelf += self1 - self0
	ph.requests += int64(reqs)
	return nil
}

// burst runs the closed loop for d, each connection sending its next
// request when the previous reply has been read. With record false (the
// warm-up) the replies are checked, and sampled ones kept for the oracle,
// but nothing is timed. It returns the requests answered.
func (p *gatewayPath) burst(ph *gwPhase, d time.Duration, record bool) int {
	rc := p.rc
	phase := "gateway." + ph.name
	type conn struct {
		lat, host []float64
		served    int64
		errs      []error
		bad       []string
		sample    map[int][]byte
	}
	conns := make([]*conn, gwConns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	base := ph.next
	for c := range conns {
		cs := &conn{sample: map[int][]byte{}}
		conns[c] = cs
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k == 0 || time.Now().Before(deadline); k++ {
				idx := (base + k*gwConns + c) % len(ph.bodies)
				t0 := time.Now()
				body, status, err := post(p.client, p.url, ph.bodies[idx])
				lat := time.Since(t0)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
				}
				cs.errs = append(cs.errs, err)
				if err != nil {
					continue
				}
				host, why := p.verify(body)
				cs.bad = append(cs.bad, why)
				if why != "" {
					continue
				}
				if _, ok := ph.sample[idx]; ok && cs.sample[idx] == nil {
					cs.sample[idx] = body
				}
				if record {
					cs.lat = append(cs.lat, float64(lat.Nanoseconds())/1e3)
					cs.host = append(cs.host, host)
					cs.served += int64(ph.rows)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	n := 0
	var rows int64
	for _, cs := range conns {
		for _, err := range cs.errs {
			rc.op(phase, err)
		}
		for _, why := range cs.bad {
			rc.check(phase, why == "", "%s", why)
		}
		n += len(cs.errs)
		rows += cs.served
		ph.lat = append(ph.lat, cs.lat...)
		ph.host = append(ph.host, cs.host...)
		for idx, r := range cs.sample {
			if ph.sample[idx] == nil {
				ph.sample[idx] = r
			}
		}
	}
	ph.next = (base + n) % len(ph.bodies)
	ph.served += rows
	if record {
		ph.rates = append(ph.rates, float64(rows)/wall.Seconds())
	}
	return n
}

// finish holds sampled replies to the oracle and computes the metrics.
func (p *gatewayPath) finish() (partOut, error) {
	o, rc := p.rc.o, p.rc
	out := partOut{e2e: map[string]float64{}, layer: map[string]float64{}, setups: p.setups}
	ref, err := oracle.NewRef(p.served, core.Options{}, false)
	if err != nil {
		return out, fmt.Errorf("oracle: %w", err)
	}
	for _, ph := range []*gwPhase{p.single, p.batch} {
		phase := "gateway." + ph.name
		rc.logf("gateway %s: %d requests", ph.name, len(ph.lat))
		for idx, body := range ph.sample {
			if body == nil {
				rc.check(phase, false, "sampled request %d was never answered", idx)
				continue
			}
			var res gwResult
			if err := json.Unmarshal(body, &res); err != nil {
				rc.check(phase, false, "request %d: undecodable reply: %v", idx, err)
				continue
			}
			if ph.rows > 1 && len(res.Results) != ph.rows || ph.rows == 1 && len(res.Std) != 1 {
				rc.check(phase, false, "request %d: wrong number of results", idx)
				continue
			}
			for r := 0; r < ph.rows; r++ {
				want, budget, err := ref.ForwardCond(p.rows[ph.first[idx]+r])
				if err != nil {
					return out, fmt.Errorf("oracle: %w", err)
				}
				mean, std := res.Mean, res.Std
				if ph.rows > 1 {
					mean, std = res.Results[r].Mean, res.Results[r].Std
				}
				got := core.GaussianVec{Mean: mean, Var: make([]float64, len(std))}
				for i, s := range std {
					got.Var[i] = s * s
				}
				ok, why := withinOracle(got, want, budget)
				rc.check(phase, ok, "request %d row %d against the oracle: %s", idx, r, why)
			}
		}
		if !o.trace {
			continue
		}
		pre := "gateway."
		dRows := ph.metrics["apds_serve_batch_rows_sum"]
		out.layer[pre+"core."+ph.name+".propagate_ns_per_row"] = ph.metrics["apds_propagate_layer_seconds_sum"] * 1e9 / dRows
		out.layer[pre+"serve."+ph.name+".queue_wait_us"] = ph.metrics["apds_serve_queue_wait_seconds_sum"] * 1e6 / ph.metrics["apds_serve_queue_wait_seconds_count"]
		out.layer[pre+"serve."+ph.name+".rows_per_flush"] = dRows / ph.metrics["apds_serve_batch_rows_count"]
		out.layer[pre+"server."+ph.name+".cpu_us_per_row"] = ph.cpuSrv * 1e6 / float64(ph.served)
		if ph == p.single {
			out.layer[pre+"client.cpu_us_per_request"] = ph.cpuSelf * 1e6 / float64(ph.requests)
		}
		httpPart := make([]float64, len(ph.lat))
		for i := range ph.lat {
			httpPart[i] = ph.lat[i] - ph.host[i]
		}
		h, hs, whole := median(httpPart), median(ph.host), median(ph.lat)
		out.layer[pre+"server."+ph.name+".http_us"] = h
		out.layer[pre+"registry."+ph.name+".host_us"] = hs
		out.layer[pre+ph.name+".residual_pct"] = 100 * (1 - (h+hs)/whole)
		out.layer[pre+"trace_scrape_ms"] += float64(ph.scrape) / 1e6
	}

	pk, err := peakRSS(p.srv.cmd.Process.Pid)
	if err != nil {
		return out, err
	}
	out.peakMB = pk
	rc.logf("gateway server: start %.4f s, peak RSS %.2f MB", p.setups[0], pk)
	if o.trace {
		out.layer["gateway.server.start_s"] = p.setups[0]
		out.layer["gateway.server.peak_rss_mb"] = pk
	}
	single := p.single.lat
	if len(single) == 0 || len(p.batch.lat) == 0 {
		return out, errors.New("a gateway phase completed no request")
	}
	out.e2e["single_p50_us"] = median(single)
	// The tail is printed as reference only: on two shared vCPUs its spread
	// over ten seeds reached 37 %, more than any bound allows (README).
	if p90, ok := percentile(single, 0.9); ok {
		rc.logf("gateway single: p90 %.0f us over %d requests (reference, not gated)", p90, len(single))
	}
	if p99, ok := percentile(single, 0.99); ok {
		rc.logf("gateway single: p99 %.0f us (reference, not gated)", p99)
	}
	if p999, ok := percentile(single, 0.999); ok {
		rc.logf("gateway single: p99.9 %.0f us (reference, not gated)", p999)
	}
	out.e2e["batch_rows_per_s"] = median(p.batch.rates)
	return out, nil
}

var (
	fingerprintKey = []byte(`"fingerprint":"`)
	hostKey        = []byte(`"host_micros":`)
)

// verify checks one reply cheaply — the served model's fingerprint — and
// reads its host_micros, without decoding the whole reply: the load
// generator must stay light next to the server it measures. Sampled replies
// are decoded in full and held to the oracle in finish.
func (p *gatewayPath) verify(body []byte) (host float64, why string) {
	i := bytes.Index(body, fingerprintKey)
	if i < 0 {
		return 0, "reply has no fingerprint"
	}
	rest := body[i+len(fingerprintKey):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 || string(rest[:j]) != p.fingerprint {
		return 0, fmt.Sprintf("reply fingerprint is not the served model file's %q", p.fingerprint)
	}
	i = bytes.Index(body, hostKey)
	if i < 0 {
		return 0, "reply has no host_micros"
	}
	rest = body[i+len(hostKey):]
	j = bytes.IndexAny(rest, ",}")
	if j < 0 {
		return 0, "reply host_micros is not terminated"
	}
	v, err := strconv.ParseInt(string(rest[:j]), 10, 64)
	if err != nil {
		return 0, fmt.Sprintf("reply host_micros: %v", err)
	}
	return float64(v), ""
}

func post(client *http.Client, url string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// selfCPU is this process's user plus system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
