package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/session"
	"github.com/apdeepsense/apdeepsense/internal/stream"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// Shape of the fleet path: fleetDevices resident sessions of 3-channel
// samples, 8-sample windows every 4 samples, standardized per session, each
// window predicted through a 24-32-1 ReLU network one row at a time.
const (
	fleetDevices  = 100_000
	fleetChannels = 3
	fleetLength   = 8
	fleetStride   = 4
	fleetWarmup   = 2 // windows before a session's z-score gates
	fleetHidden   = 32
	fleetSetups   = 3 // set-ups timed per fleet run; setup_s is their median
	// The first fleetRounds rounds are the counted script: sessions pass
	// their first windows and gate warm-up and the drift cohort escalates.
	// Ingest is timed from round fleetSteady on, and every run streams at
	// least fleetMinRounds rounds.
	fleetRounds    = 20
	fleetSteady    = 12
	fleetMinRounds = 28
	fleetCont      = 4  // samples per device streamed after the restore
	fleetReplay    = 32 // devices replayed through the stream primitives
	fleetCopies    = 4  // snapshot-and-restore copies timed per run, at least
	fleetSnaps     = 3  // snapshots timed per copy
	fleetChunks    = 4  // device chunks; a stream slice advances one chunk
	fleetCopyEvery = 8  // stream slices between two timed copies
	// driftPerMille of the devices jump in amplitude and offset at an onset
	// round inside the counted script, so the gate escalates them.
	driftPerMille  = 20
	driftOnsetMin  = 12
	driftOnsetSpan = 6
)

// fleetInputs generates every device's samples as a pure function of the
// seed, the device and the round, so any device can be replayed.
type fleetInputs struct {
	seed  uint64
	ids   []string
	phase []uint8
	freq  []uint8
	amp   []float64
	onset []int32 // drift onset round, or -1 outside the drift cohort
}

var sinTab = func() [64]float64 {
	var t [64]float64
	for i := range t {
		t[i] = math.Sin(2 * math.Pi * float64(i) / 64)
	}
	return t
}()

func newFleetInputs(seed int64) *fleetInputs {
	rng := rand.New(rand.NewSource(seed ^ 0xf1ee7))
	f := &fleetInputs{
		seed:  uint64(seed),
		ids:   make([]string, fleetDevices),
		phase: make([]uint8, fleetDevices),
		freq:  make([]uint8, fleetDevices),
		amp:   make([]float64, fleetDevices),
		onset: make([]int32, fleetDevices),
	}
	for d := range f.ids {
		f.ids[d] = fmt.Sprintf("fleet/dev-%06d", d)
		f.phase[d] = uint8(rng.Intn(64))
		f.freq[d] = uint8(1 + rng.Intn(3))
		f.amp[d] = 0.5 + rng.Float64()
		f.onset[d] = -1
		if rng.Intn(1000) < driftPerMille {
			f.onset[d] = int32(driftOnsetMin + rng.Intn(driftOnsetSpan))
		}
	}
	return f
}

// splitmix64 is a fast, well-mixed hash for per-sample noise.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sample writes device d's sample of round t into dst.
func (f *fleetInputs) sample(d, t int, dst []float64) {
	drift := f.onset[d] >= 0 && t >= int(f.onset[d])
	for c := range dst {
		h := splitmix64(f.seed ^ uint64(d)<<24 ^ uint64(t)<<2 ^ uint64(c))
		noise := float64(h>>11)/(1<<53) - 0.5
		v := f.amp[d]*sinTab[(int(f.phase[d])+int(f.freq[d])*t+16*c)&63] + 0.2*noise
		if drift {
			v = 6*v + 3
		}
		dst[c] = v
	}
}

// windowsAfter is how many windows a session emits over n samples.
func windowsAfter(n int) int64 {
	if n < fleetLength {
		return 0
	}
	return int64((n-fleetLength)/fleetStride + 1)
}

// replayRec is what one replayed device's windows looked like in the fleet.
type replayRec struct {
	rows  []tensor.Vector
	preds []core.GaussianVec
}

// fleetPredictor is the predict function the manager calls: the library's
// batched path on the rows it is handed, optionally timed, and recording the
// rows of the device being replayed.
type fleetPredictor struct {
	est    *core.ApDeepSense
	timed  bool
	ns     int64
	record *replayRec
}

func (p *fleetPredictor) predict(_ context.Context, rows []tensor.Vector) ([]core.GaussianVec, error) {
	if p.record != nil {
		p.record.rows = append(p.record.rows, rows...)
	}
	if !p.timed {
		return p.est.PredictBatch(rows)
	}
	start := time.Now()
	out, err := p.est.PredictBatch(rows)
	p.ns += time.Since(start).Nanoseconds()
	return out, err
}

func fleetConfig() session.Config {
	return session.Config{
		Channels: fleetChannels, Length: fleetLength, Stride: fleetStride,
		Standardize: true, WarmupWindows: fleetWarmup,
	}
}

// fleetWorker runs the fleet path inside its own process (see
// runFleetWorker), so its heap, its collector and its peak RSS are its own
// and not the benchmark's.
type fleetWorker struct {
	rc    *runCtx
	dir   string
	in    *fleetInputs
	est   *core.ApDeepSense
	pred  *fleetPredictor
	recs  []*replayRec
	m     *session.Manager
	buf   []float64
	ok    int64 // successful ingests not yet recorded
	heap0 uint64
	ms0   runtime.MemStats

	setups []float64
	// stream slices: chunk c of the devices advances fleetStride rounds
	chunkRounds [fleetChunks]int
	slices      int
	plain       []float64 // seconds per timed, untraced stream slice
	plainN      int64     // samples ingested in those slices
	traced      []float64 // seconds per traced stream slice
	ingestNs    int64
	tracedN     int64 // samples ingested in traced slices
	tracedWin   int64
	streamAlloc uint64
	samples     int64

	windows, escalated             int64
	scriptWindows, scriptEscalated int64

	snapS, restS []float64
	snapBytes    int64
	restoreAlloc uint64
}

func newFleetWorker(rc *runCtx, dir string, setups int) (*fleetWorker, error) {
	o := rc.o
	w := &fleetWorker{rc: rc, dir: dir, buf: make([]float64, fleetChannels)}
	net, err := nn.New(nn.Config{
		InputDim: fleetChannels * fleetLength, Hidden: []int{fleetHidden}, OutputDim: 1,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity, KeepProb: scoreKeep, Seed: o.seed + 20,
	})
	if err != nil {
		return nil, err
	}
	if w.est, err = core.NewApDeepSense(net, core.Options{}, 0); err != nil {
		return nil, err
	}
	w.in = newFleetInputs(o.seed)
	rng := rand.New(rand.NewSource(o.seed ^ 0x7e91a))
	w.recs = make([]*replayRec, fleetDevices)
	for n := 0; n < fleetReplay; {
		if d := rng.Intn(fleetDevices); w.recs[d] == nil {
			w.recs[d] = &replayRec{}
			n++
		}
	}
	w.pred = &fleetPredictor{est: w.est}
	runtime.ReadMemStats(&w.ms0)

	// Set-up: a fresh manager and every device's first sample.
	for i := 0; i < setups; i++ {
		w.m = nil
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		w.heap0 = ms.HeapAlloc
		start := time.Now()
		if w.m, err = session.NewManager(fleetConfig(), w.pred.predict); err != nil {
			return nil, err
		}
		for d := 0; d < fleetDevices; d++ {
			w.ingest(w.m, "fleet.setup", d, 0)
		}
		w.setups = append(w.setups, time.Since(start).Seconds())
		w.countOK("fleet.setup")
	}
	return w, nil
}

// ingest feeds device d its sample of round t. A failure is recorded at
// once; successes are counted in w.ok and recorded by countOK, outside the
// timed loops.
func (w *fleetWorker) ingest(m *session.Manager, phase string, d, t int) session.Verdict {
	w.in.sample(d, t, w.buf)
	v, err := m.Ingest(context.Background(), w.in.ids[d], w.buf)
	if err != nil {
		w.rc.op(phase, err)
		return v
	}
	w.ok++
	return v
}

func (w *fleetWorker) countOK(phase string) {
	w.rc.ops(phase, w.ok)
	w.ok = 0
}

// stream advances the next chunk of devices by fleetStride rounds, so every
// device in it completes one window.
func (w *fleetWorker) stream() {
	c := w.slices % fleetChunks
	// Sessions pass their first windows and their gate's warm-up in the
	// early rounds, so only later slices, in steady state, are timed.
	timed := w.chunkRounds[c] >= fleetSteady
	traced := timed && w.rc.o.trace && (w.slices/fleetChunks)%2 == 1
	w.slices++
	lo, hi := c*fleetDevices/fleetChunks, (c+1)*fleetDevices/fleetChunks
	w.pred.timed = traced
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; r < fleetStride; r++ {
		w.chunkRounds[c]++
		t := w.chunkRounds[c]
		for d := lo; d < hi; d++ {
			w.pred.record = w.recs[d]
			var v session.Verdict
			if traced {
				t0 := time.Now()
				v = w.ingest(w.m, "fleet.stream", d, t)
				w.ingestNs += time.Since(t0).Nanoseconds()
			} else {
				v = w.ingest(w.m, "fleet.stream", d, t)
			}
			if !v.Window {
				continue
			}
			w.windows++
			esc := v.Decision == stream.Escalate
			if esc {
				w.escalated++
			}
			if t <= fleetRounds {
				w.scriptWindows++
				if esc {
					w.scriptEscalated++
				}
			}
			if traced {
				w.tracedWin++
			}
			if rec := w.recs[d]; rec != nil {
				rec.preds = append(rec.preds, v.Pred)
			}
		}
	}
	took := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	w.countOK("fleet.stream")
	w.pred.record, w.pred.timed = nil, false
	w.streamAlloc += after.TotalAlloc - before.TotalAlloc
	n := int64(fleetStride * (hi - lo))
	w.samples += n
	switch {
	case traced:
		w.traced = append(w.traced, took)
		w.tracedN += n
	case timed:
		w.plain = append(w.plain, took)
		w.plainN += n
	}
}

// copyFleet snapshots the whole fleet to a file and restores the file into
// a fresh manager, timing both; it returns the restored manager.
func (w *fleetWorker) copyFleet() (*session.Manager, error) {
	rc := w.rc
	path := filepath.Join(w.dir, "fleet.apsf")
	for i := 0; i < fleetSnaps; i++ {
		start := time.Now()
		info, err := snapshotTo(w.m, path)
		w.snapS = append(w.snapS, time.Since(start).Seconds())
		rc.op("fleet.snapshot", err)
		if err != nil {
			return nil, err
		}
		rc.check("fleet.snapshot", info.Sessions == fleetDevices, "snapshot holds %d sessions, want %d", info.Sessions, fleetDevices)
		w.snapBytes = info.Bytes
	}

	runtime.GC()
	r, err := session.NewManager(fleetConfig(), w.pred.predict)
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	info, err := restoreFrom(r, path)
	w.restS = append(w.restS, time.Since(start).Seconds())
	runtime.ReadMemStats(&after)
	w.restoreAlloc = after.TotalAlloc - before.TotalAlloc
	rc.op("fleet.restore", err)
	if err != nil {
		return nil, err
	}
	rc.check("fleet.restore", info.Sessions == fleetDevices, "restored %d sessions, want %d", info.Sessions, fleetDevices)
	return r, nil
}

// finish checks the fleet's outputs and computes the metrics. Every chunk
// must have streamed the same number of rounds.
func (w *fleetWorker) finish() (partOut, error) {
	o, rc := w.rc.o, w.rc
	out := partOut{e2e: map[string]float64{}, layer: map[string]float64{}, setups: w.setups}
	rounds := w.chunkRounds[0]
	for c, r := range w.chunkRounds {
		if r != rounds {
			return out, fmt.Errorf("chunk %d streamed %d rounds, chunk 0 %d", c, r, rounds)
		}
	}
	want := fleetDevices * windowsAfter(rounds+1)
	rc.check("fleet.stream", w.windows == want, "%d windows from %d samples per device, want %d", w.windows, rounds+1, want)
	rc.logf("fleet stream: %d rounds, %d windows, %d escalated (first %d rounds: %d windows, %d escalated)",
		rounds, w.windows, w.escalated, fleetRounds, w.scriptWindows, w.scriptEscalated)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.e2e["bytes_per_session"] = float64(int64(ms.HeapAlloc)-int64(w.heap0)) / fleetDevices
	// A collection cycle falls in some slices and not in others, so the
	// rate is the slices' total, not their median.
	out.e2e["ingest_per_s"] = float64(w.plainN) / sum(w.plain)

	// Replay: the windows, standardized inputs and predictions of sampled
	// devices against the stream primitives and a direct Propagate.
	for d, rec := range w.recs {
		if rec != nil {
			ok, why := replayDevice(w.in, w.est.Propagator(), d, rounds, rec)
			rc.check("fleet.replay", ok, "device %d: %s", d, why)
		}
	}

	// Continuation: a copy of the final fleet and the never-restarted fleet
	// take the same next samples and must give bit-identical verdicts.
	restored, err := w.copyFleet()
	if err != nil {
		return out, err
	}
	mismatch := make([]bool, fleetDevices)
	for c := 1; c <= fleetCont; c++ {
		t := rounds + c
		for d := 0; d < fleetDevices; d++ {
			a := w.ingest(w.m, "fleet.continue", d, t)
			b := w.ingest(restored, "fleet.continue", d, t)
			if !sameVerdict(a, b) {
				mismatch[d] = true
			}
		}
	}
	w.countOK("fleet.continue")
	for d, bad := range mismatch {
		rc.check("fleet.continue", !bad, "device %d: restored fleet's verdicts differ from the never-restarted fleet's", d)
	}
	rc.logf("fleet copies: snapshot s %.3f, restore s %.3f", w.snapS, w.restS)
	out.e2e["snapshot_s"] = median(w.snapS)
	out.e2e["restore_s"] = median(w.restS)

	pk, err := peakRSS(os.Getpid())
	if err != nil {
		return out, err
	}
	out.peakMB = pk
	if !o.trace {
		return out, nil
	}
	var msEnd runtime.MemStats
	runtime.ReadMemStats(&msEnd)
	out.layer["fleet.session.ingest_self_ns"] = float64(w.ingestNs-w.pred.ns) / float64(w.tracedN)
	out.layer["fleet.core.predict_us_per_window"] = float64(w.pred.ns) / 1e3 / float64(w.tracedWin)
	out.layer["fleet.session.windows"] = float64(w.scriptWindows)
	out.layer["fleet.session.escalated"] = float64(w.scriptEscalated)
	out.layer["fleet.session.snapshot_bytes"] = float64(w.snapBytes)
	out.layer["fleet.restore_alloc_mb"] = float64(w.restoreAlloc) / 1e6
	out.layer["fleet.alloc_bytes_per_sample"] = float64(w.streamAlloc) / float64(w.samples)
	out.layer["fleet.gc_pause_ms"] = float64(msEnd.PauseTotalNs-w.ms0.PauseTotalNs) / 1e6
	tr, pl := float64(w.tracedN)/sum(w.traced), float64(w.plainN)/sum(w.plain)
	out.layer["fleet.trace_overhead_pct"] = 100 * (pl/tr - 1)
	rc.logf("fleet: traced %.0f samples/s, plain %.0f samples/s", tr, pl)
	return out, nil
}

func snapshotTo(m *session.Manager, path string) (session.SnapshotInfo, error) {
	f, err := os.Create(path)
	if err != nil {
		return session.SnapshotInfo{}, err
	}
	info, err := m.Snapshot(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return info, err
}

func restoreFrom(m *session.Manager, path string) (session.SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return session.SnapshotInfo{}, err
	}
	defer f.Close()
	return m.Restore(f)
}

// replayDevice pushes device d's samples through stream.Windower and
// stream.OnlineStandardizer, propagates each standardized window directly,
// and compares both bit for bit with what the fleet predicted on.
func replayDevice(in *fleetInputs, prop *core.Propagator, d, rounds int, rec *replayRec) (bool, string) {
	w, err := stream.NewWindower(fleetChannels, fleetLength, fleetStride)
	if err != nil {
		return false, err.Error()
	}
	std, err := stream.NewOnlineStandardizer(fleetChannels * fleetLength)
	if err != nil {
		return false, err.Error()
	}
	buf := make([]float64, fleetChannels)
	k := 0
	for t := 0; t <= rounds; t++ {
		in.sample(d, t, buf)
		win, ok, err := w.Push(buf)
		if err != nil {
			return false, err.Error()
		}
		if !ok {
			continue
		}
		if err := std.Observe(win); err != nil {
			return false, err.Error()
		}
		x, err := std.Apply(win)
		if err != nil {
			return false, err.Error()
		}
		if k >= len(rec.rows) || k >= len(rec.preds) {
			return false, fmt.Sprintf("fleet predicted %d windows, replay has more", len(rec.rows))
		}
		if !sameBits(x, rec.rows[k]) {
			return false, fmt.Sprintf("window %d: standardized input differs", k)
		}
		g, err := prop.Propagate(x)
		if err != nil {
			return false, err.Error()
		}
		if !sameBits(g.Mean, rec.preds[k].Mean) || !sameBits(g.Var, rec.preds[k].Var) {
			return false, fmt.Sprintf("window %d: prediction differs from a direct Propagate", k)
		}
		k++
	}
	if k != len(rec.rows) || k != len(rec.preds) {
		return false, fmt.Sprintf("replay has %d windows, fleet predicted %d and gave %d verdicts", k, len(rec.rows), len(rec.preds))
	}
	return true, ""
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameVerdict(a, b session.Verdict) bool {
	return a.Window == b.Window && a.Decision == b.Decision && a.Degenerate == b.Degenerate &&
		math.Float64bits(a.MeanStd) == math.Float64bits(b.MeanStd) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z) &&
		math.Float64bits(a.Score) == math.Float64bits(b.Score) &&
		sameBits(a.Pred.Mean, b.Pred.Mean) && sameBits(a.Pred.Var, b.Pred.Var)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
