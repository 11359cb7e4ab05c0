package main

import (
	"fmt"
	"io"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/mcdrop"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// runReference measures the one-off figures README.md quotes: the paper's
// headline ratio against MCDrop-50 on the score path's ReLU network and
// inputs, the 5-256-256-1 batch-64 per-sample cost, and how far a 200 µs
// sleep overshoots on this host.
func runReference(o options, stdout io.Writer) error {
	rc := newRunCtx(o, stdout)
	stamp(rc)

	// ApDeepSense against MCDrop-50: the same network, the same rows.
	models, err := buildScoreModels(o.seed)
	if err != nil {
		return err
	}
	batches, _, err := scoreInputs(o.seed)
	if err != nil {
		return err
	}
	in := batches[0]
	apds := timeRepeated(2*time.Second, func() error {
		_, err := core.PredictBatch(models.relu, in, 0)
		return err
	})
	mc, err := mcdrop.New(models.relu.Propagator().Network(), 50, 0, o.seed)
	if err != nil {
		return err
	}
	mcd := timeRepeated(4*time.Second, func() error {
		_, err := core.PredictBatch(mc, in, 0)
		return err
	})
	if apds.err != nil || mcd.err != nil {
		return fmt.Errorf("score network: %v / %v", apds.err, mcd.err)
	}
	ar, mr := float64(len(in))/apds.median, float64(len(in))/mcd.median
	rc.logf("relu 250-512x4-250, batch %d: ApDeepSense %.0f rows/s (%d batches), MCDrop-50 %.1f rows/s (%d batches): ratio %.1fx, time saved %.1f%%",
		len(in), ar, apds.n, mr, mcd.n, ar/mr, 100*(1-mr/ar))

	// The 5-256-256-1 batch-64 per-sample cost, interpreted engine.
	net, err := nn.New(nn.Config{InputDim: 5, Hidden: []int{256, 256}, OutputDim: 1,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity, KeepProb: 0.9, Seed: o.seed})
	if err != nil {
		return err
	}
	rows := make([]tensor.Vector, 64)
	for i := range rows {
		rows[i] = tensor.Vector{0.1 * float64(i%7), -0.2, 0.3, float64(i%5) - 2, 0.05 * float64(i)}
	}
	for _, workers := range []int{1, 0} {
		prop, err := core.NewPropagator(net, core.Options{}, core.WithWorkers(workers))
		if err != nil {
			return err
		}
		t := timeRepeated(2*time.Second, func() error {
			_, err := prop.PropagateBatch(rows)
			return err
		})
		if t.err != nil {
			return t.err
		}
		rc.logf("5-256-256-1 batch 64, interpreted, workers=%d (0 = GOMAXPROCS): %.1f us per sample (median of %d batches; q1 %.1f, q3 %.1f)",
			workers, t.median/64*1e6, t.n, t.q1/64*1e6, t.q3/64*1e6)
	}

	// How late a 200 µs sleep wakes up: the reason the gateway load is a
	// closed loop and not a paced open loop at sub-millisecond gaps.
	const want = 200 * time.Microsecond
	over := make([]float64, 2000)
	for i := range over {
		t := time.Now()
		time.Sleep(want)
		over[i] = float64(time.Since(t)-want) / 1e3
	}
	p90, _ := percentile(over, 0.9)
	p99, _ := percentile(over, 0.99)
	rc.logf("time.Sleep(200us) overshoot over %d sleeps: median %.0f us, p90 %.0f us, p99 %.0f us", len(over), median(over), p90, p99)
	return nil
}

type timing struct {
	n              int
	q1, median, q3 float64 // seconds per call
	err            error
}

// timeRepeated calls f for about d (at least five times) and returns the
// quartiles of its call time.
func timeRepeated(d time.Duration, f func() error) timing {
	var ts []float64
	start := time.Now()
	for len(ts) < 5 || time.Since(start) < d {
		t := time.Now()
		if err := f(); err != nil {
			return timing{err: err}
		}
		ts = append(ts, time.Since(t).Seconds())
	}
	q1, m, q3 := quartiles(ts)
	return timing{n: len(ts), q1: q1, median: m, q3: q3}
}
