package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/datasets"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/oracle"
	"github.com/apdeepsense/apdeepsense/internal/rnn"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// Shape of the score path: standardized BPEst windows (250 samples) through
// paper-scale 250-512×4-250 networks in batches of 64, and 64-step sequences
// of 8 features cut from the same windows through an 8-48-4 GRU.
const (
	scoreRows    = 512
	scoreBatch   = 64
	scoreHidden  = 512
	scoreLayers  = 5 // four hidden layers and the output layer
	scoreKeep    = 0.9
	gruIn        = 8
	gruHidden    = 48
	gruOut       = 4
	gruSteps     = 64
	gruHop       = 3
	gruBatch     = 16
	scoreSetups  = 5 // set-ups timed per run; setup_s is their median
	scoreRounds  = 3 // rounds every run makes, whatever its budget
	oracleRows   = 2 // rows per network held to the oracle per run
	kernelPasses = 4 // batches timed layer by layer in a traced run
)

// oracleRel is the relative part of the oracle tolerance; the absolute part
// is the oracle's a-priori conditioning budget for the same input.
const oracleRel = 1e-9

type scoreModels struct {
	relu, tanh *core.ApDeepSense
	gru        *rnn.GRU
}

func newScoreNet(act nn.Activation, seed int64) (*core.ApDeepSense, error) {
	net, err := nn.New(nn.Config{
		InputDim: 250, Hidden: []int{scoreHidden, scoreHidden, scoreHidden, scoreHidden}, OutputDim: 250,
		Activation: act, OutputActivation: nn.ActIdentity, KeepProb: scoreKeep, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return core.NewApDeepSense(net, core.Options{}, 0)
}

func buildScoreModels(seed int64) (scoreModels, error) {
	var m scoreModels
	var err error
	if m.relu, err = newScoreNet(nn.ActReLU, seed+1); err != nil {
		return m, fmt.Errorf("relu network: %w", err)
	}
	if m.tanh, err = newScoreNet(nn.ActTanh, seed+2); err != nil {
		return m, fmt.Errorf("tanh network: %w", err)
	}
	if m.gru, err = rnn.NewGRU(gruIn, gruHidden, gruOut, scoreKeep, rand.New(rand.NewSource(seed+3))); err != nil {
		return m, fmt.Errorf("gru: %w", err)
	}
	return m, nil
}

// scoreInputs returns the standardized BPEst PPG windows, in batches of
// scoreBatch, and the GRU sequences cut from them, in batches of gruBatch.
func scoreInputs(seed int64) ([][]tensor.Vector, [][][]tensor.Vector, error) {
	d, err := datasets.BPEst(datasets.Size{Train: scoreRows, Val: 1, Test: 1, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	var rows [][]tensor.Vector
	for lo := 0; lo < scoreRows; lo += scoreBatch {
		b := make([]tensor.Vector, scoreBatch)
		for i := range b {
			b[i] = d.Train[lo+i].X
		}
		rows = append(rows, b)
	}
	var seqs [][][]tensor.Vector
	for lo := 0; lo < scoreRows; lo += gruBatch {
		b := make([][]tensor.Vector, gruBatch)
		for i := range b {
			x := d.Train[lo+i].X
			seq := make([]tensor.Vector, gruSteps)
			for t := range seq {
				seq[t] = x[t*gruHop : t*gruHop+gruIn]
			}
			b[i] = seq
		}
		seqs = append(seqs, b)
	}
	return rows, seqs, nil
}

// layerClock sums core.Hooks.LayerTime reports of one propagator.
type layerClock struct {
	mu     sync.Mutex
	ns     [scoreLayers]int64
	rows   [scoreLayers]int64
	chunks int64 // row chunks of the current call (layer-0 reports)
}

func (c *layerClock) hooks() *core.Hooks {
	return &core.Hooks{LayerTime: func(layer, rows int, d time.Duration) {
		c.mu.Lock()
		c.ns[layer] += d.Nanoseconds()
		c.rows[layer] += int64(rows)
		if layer == 0 {
			c.chunks++
		}
		c.mu.Unlock()
	}}
}

// netRun accumulates one network's measurements over a run.
type netRun struct {
	name     string
	est      *core.ApDeepSense
	plain    []int64 // ns per batch call without hooks
	hooked   []int64 // ns per batch call with hooks (traced runs)
	clock    layerClock
	workerNs int64 // Σ hooked wall × row chunks: the whole the layers are parts of
	alloc    uint64
	rows     int64
	sample   map[int]core.GaussianVec // oracle-checked rows: index → output
}

// scorePath is the offline scoring path: core.PredictBatch on the two
// dense networks and rnn.GRU.PropagateMomentsBatch, one round of each per
// slice.
type scorePath struct {
	rc         *runCtx
	models     scoreModels
	batches    [][]tensor.Vector
	seqBatches [][][]tensor.Vector
	nets       []*netRun
	gruSample  map[int]core.GaussianVec
	gruNs      []int64
	gruAlloc   uint64
	gruSeqs    int64
	round      int
	ms0        runtime.MemStats
	setups     []float64
}

func newScorePath(rc *runCtx) (*scorePath, error) {
	o := rc.o
	p := &scorePath{rc: rc}
	setups := 1
	if o.workload == wScore {
		setups = scoreSetups
	}
	for i := 0; i < setups; i++ {
		start := time.Now()
		m, err := buildScoreModels(o.seed)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(start).Seconds())
		p.models = m
	}
	var err error
	if p.batches, p.seqBatches, err = scoreInputs(o.seed); err != nil {
		return nil, fmt.Errorf("bpest inputs: %w", err)
	}
	rng := rand.New(rand.NewSource(o.seed ^ 0x5c0e))
	// Sampled rows and sequences lie in the batches every run scores.
	pick := func(n int) map[int]core.GaussianVec {
		m := map[int]core.GaussianVec{}
		for len(m) < oracleRows {
			m[rng.Intn(n)] = core.GaussianVec{}
		}
		return m
	}
	p.nets = []*netRun{
		{name: "relu", est: p.models.relu, sample: pick(scoreRounds * scoreBatch)},
		{name: "tanh", est: p.models.tanh, sample: pick(scoreRounds * scoreBatch)},
	}
	p.gruSample = pick(scoreRounds * gruBatch)
	runtime.ReadMemStats(&p.ms0)
	return p, nil
}

func (p *scorePath) done() bool { return p.round >= scoreRounds }

// slice scores one round: one batch through each network, then one batch
// of sequences through the GRU.
func (p *scorePath) slice() error {
	o, rc := p.rc.o, p.rc
	round := p.round
	p.round++
	bi := round % len(p.batches)
	for _, nr := range p.nets {
		phase := "score." + nr.name
		if !o.trace {
			nr.call(rc, phase, p.batches[bi], bi, false)
			continue
		}
		// Hooked and plain calls alternate, so the tracing overhead is
		// measured on the same inputs in the same conditions.
		first := round%2 == 0
		nr.call(rc, phase, p.batches[bi], bi, first)
		nr.call(rc, phase, p.batches[bi], bi, !first)
	}
	si := round % len(p.seqBatches)
	var before, after runtime.MemStats
	if o.trace {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	preds, err := p.models.gru.PropagateMomentsBatch(p.seqBatches[si])
	d := time.Since(start)
	if o.trace {
		runtime.ReadMemStats(&after)
		p.gruAlloc += after.TotalAlloc - before.TotalAlloc
	}
	rc.op("score.gru", err)
	if err != nil {
		return nil
	}
	p.gruNs = append(p.gruNs, d.Nanoseconds())
	p.gruSeqs += int64(len(preds))
	rc.check("score.gru", allFinite(preds), "sequence batch %d: non-finite moment or negative variance", si)
	for i, g := range preds {
		if s, ok := p.gruSample[si*gruBatch+i]; ok && s.Dim() == 0 {
			p.gruSample[si*gruBatch+i] = g
		}
	}
	return nil
}

// finish holds the sampled outputs to the oracle and computes the metrics.
func (p *scorePath) finish() (partOut, error) {
	o, rc := p.rc.o, p.rc
	out := partOut{e2e: map[string]float64{}, layer: map[string]float64{}, setups: p.setups}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	// Outputs against the oracle: quadrature moments, naive loops.
	for _, nr := range p.nets {
		ref, err := oracle.NewRef(nr.est.Propagator().Network(), core.Options{}, false)
		if err != nil {
			return out, fmt.Errorf("%s oracle: %w", nr.name, err)
		}
		for idx, got := range nr.sample {
			want, budget, err := ref.ForwardCond(p.batches[idx/scoreBatch][idx%scoreBatch])
			if err != nil {
				return out, fmt.Errorf("%s oracle row %d: %w", nr.name, idx, err)
			}
			ok, why := withinOracle(got, want, budget)
			rc.check("score."+nr.name, ok, "row %d against the oracle: %s", idx, why)
		}
	}
	gref, err := oracle.NewGRURef(p.models.gru, core.Options{})
	if err != nil {
		return out, fmt.Errorf("gru oracle: %w", err)
	}
	for idx, got := range p.gruSample {
		want, budget, err := gref.ForwardCond(p.seqBatches[idx/gruBatch][idx%gruBatch])
		if err != nil {
			return out, fmt.Errorf("gru oracle sequence %d: %w", idx, err)
		}
		ok, why := withinOracle(got, want, budget)
		rc.check("score.gru", ok, "sequence %d against the oracle: %s", idx, why)
	}

	pk, err := peakRSS(os.Getpid())
	if err != nil {
		return out, err
	}
	out.peakMB = pk
	for _, nr := range p.nets {
		out.e2e[nr.name+"_rows_per_s"] = scoreBatch / (median(nsToFloat(nr.plain)) / 1e9)
	}
	out.e2e["gru_seqs_per_s"] = gruBatch / (median(nsToFloat(p.gruNs)) / 1e9)
	rc.logf("score: %d rounds", p.round)
	if !o.trace {
		return out, nil
	}

	for _, nr := range p.nets {
		pre := "score.core." + nr.name + "."
		var layerSum int64
		for i := 0; i < scoreLayers; i++ {
			out.layer[fmt.Sprintf("%sl%d_ns_per_row", pre, i)] = float64(nr.clock.ns[i]) / float64(nr.clock.rows[i])
			layerSum += nr.clock.ns[i]
		}
		out.layer["score."+nr.name+".layer_residual_pct"] = 100 * (1 - float64(layerSum)/float64(nr.workerNs))
		hooked, plain := median(nsToFloat(nr.hooked)), median(nsToFloat(nr.plain))
		out.layer["score."+nr.name+".trace_overhead_pct"] = 100 * (hooked/plain - 1)
		out.layer["score."+nr.name+".alloc_bytes_per_row"] = float64(nr.alloc) / float64(nr.rows)
		rc.logf("score %s: hooked %.0f rows/s, plain %.0f rows/s", nr.name, scoreBatch/(hooked/1e9), scoreBatch/(plain/1e9))

		var mm, act int64
		for b := 0; b < kernelPasses; b++ {
			in := p.batches[b%len(p.batches)]
			m, a, res, err := kernelPass(nr.est.Propagator(), in)
			if err != nil {
				return out, fmt.Errorf("%s kernel pass: %w", nr.name, err)
			}
			mm += m
			act += a
			if b == 0 {
				want, err := nr.est.Propagator().PropagateBatch(in)
				ok := err == nil && sameBits(res.Mean.Data, want.Mean.Data) && sameBits(res.Var.Data, want.Var.Data)
				rc.check("score."+nr.name, ok, "the layer-by-layer kernel pass does not reproduce PropagateBatch bit for bit (err %v)", err)
			}
		}
		rows := float64(kernelPasses * scoreBatch)
		out.layer["score.tensor."+nr.name+".matmul_ns_per_row"] = float64(mm) / rows
		out.layer["score.stats."+nr.name+".act_ns_per_row"] = float64(act) / rows
	}
	out.layer["score.gru.alloc_bytes_per_seq"] = float64(p.gruAlloc) / float64(p.gruSeqs)
	out.layer["score.gc_pause_ms"] = float64(ms1.PauseTotalNs-p.ms0.PauseTotalNs) / 1e6
	return out, nil
}

// call scores one batch through core.PredictBatch and records its time,
// outputs and, when hooked, the per-layer clock and allocations.
func (nr *netRun) call(rc *runCtx, phase string, in []tensor.Vector, bi int, hooked bool) {
	prop := nr.est.Propagator()
	var before, after runtime.MemStats
	if hooked {
		prop.SetHooks(nr.clock.hooks())
		nr.clock.chunks = 0
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	preds, err := core.PredictBatch(nr.est, in, 0)
	d := time.Since(start).Nanoseconds()
	if hooked {
		runtime.ReadMemStats(&after)
		prop.SetHooks(nil)
		nr.alloc += after.TotalAlloc - before.TotalAlloc
		nr.rows += int64(len(in))
		nr.workerNs += d * nr.clock.chunks
		nr.hooked = append(nr.hooked, d)
	} else {
		nr.plain = append(nr.plain, d)
	}
	rc.op(phase, err)
	if err != nil {
		return
	}
	rc.check(phase, len(preds) == len(in) && allFinite(preds), "batch %d: wrong count, non-finite moment or negative variance", bi)
	for i, g := range preds {
		if s, ok := nr.sample[bi*scoreBatch+i]; ok && s.Dim() == 0 {
			nr.sample[bi*scoreBatch+i] = g
		}
	}
}

// allFinite reports whether every mean is finite and every variance finite
// and non-negative.
func allFinite(gs []core.GaussianVec) bool {
	for _, g := range gs {
		for i := range g.Mean {
			m, v := g.Mean[i], g.Var[i]
			if math.IsNaN(m) || math.IsInf(m, 0) || !(v >= 0) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// withinOracle holds got to the oracle's moments: each mean and variance
// within oracleRel·max(1, |oracle|) plus the oracle's conditioning budget.
func withinOracle(got, want core.GaussianVec, b oracle.CondBudget) (bool, string) {
	if got.Dim() != want.Dim() {
		return false, fmt.Sprintf("dim %d, oracle %d", got.Dim(), want.Dim())
	}
	for i := range want.Mean {
		if d, tol := math.Abs(got.Mean[i]-want.Mean[i]), oracleRel*math.Max(1, math.Abs(want.Mean[i]))+b.Mean; !(d <= tol) {
			return false, fmt.Sprintf("mean[%d] = %v, oracle %v (|diff| %g > %g)", i, got.Mean[i], want.Mean[i], d, tol)
		}
		if d, tol := math.Abs(got.Var[i]-want.Var[i]), oracleRel*math.Max(1, math.Abs(want.Var[i]))+b.Var; !(d <= tol) {
			return false, fmt.Sprintf("var[%d] = %v, oracle %v (|diff| %g > %g)", i, got.Var[i], want.Var[i], d, tol)
		}
	}
	return true, ""
}

// kernelPass pushes one batch through the network layer by layer outside
// the propagator, returning its output moments, timing the two tensor products of each layer (means by W,
// variances by W²) and the activation-moment step (core.ActKernel.Moments
// over every pre-activation Gaussian) separately. The arithmetic is the
// batched path's own: dropout input moments, products, bias, variance clamp.
func kernelPass(prop *core.Propagator, in []tensor.Vector) (matmulNs, actNs int64, res core.GaussianBatch, err error) {
	layers := prop.Network().Layers()
	rows := len(in)
	dim := len(in[0])
	mu := tensor.NewMatrix(rows, dim)
	va := tensor.NewMatrix(rows, dim)
	for r, x := range in {
		copy(mu.Data[r*dim:(r+1)*dim], x)
	}
	for li, l := range layers {
		keep := l.KeepProb
		for t, m := range mu.Data {
			s2 := va.Data[t]
			mu.Data[t] = m * keep
			va.Data[t] = (m*m+s2)*keep - m*m*keep*keep
		}
		wsq := l.W.Square()
		nxtMu := tensor.NewMatrix(rows, l.OutDim())
		nxtVa := tensor.NewMatrix(rows, l.OutDim())
		start := time.Now()
		if err := mu.MulInto(l.W, nxtMu); err != nil {
			return 0, 0, res, err
		}
		if err := va.MulInto(wsq, nxtVa); err != nil {
			return 0, 0, res, err
		}
		matmulNs += time.Since(start).Nanoseconds()

		nOut := l.OutDim()
		for t := range nxtMu.Data {
			nxtMu.Data[t] += l.B[t%nOut]
			if nxtVa.Data[t] < 0 {
				nxtVa.Data[t] = 0
			}
		}
		ak := prop.Kernel(li)
		bounds := make([]stats.Boundary, ak.NumBounds())
		pms := make([]stats.PartialMoments, ak.NumBounds())
		o, v := nxtMu.Data, nxtVa.Data
		start = time.Now()
		for t := range o {
			o[t], v[t] = ak.Moments(o[t], v[t], bounds, pms)
		}
		actNs += time.Since(start).Nanoseconds()
		mu, va = nxtMu, nxtVa
	}
	return matmulNs, actNs, core.GaussianBatch{Mean: mu, Var: va}, nil
}

func nsToFloat(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}
