package main

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"time"
)

// workload is one set of generated inputs and the ops run over them.
// Ops run in blocks: the runner times every op of a block, then checks
// every result of the block outside the timed window.
type workload interface {
	// setup generates every input from seed and builds the system under
	// test, recording "setup.topo" (inputs) and "setup.network" (the
	// system, ready to serve) spans under parent when tr is non-nil.
	setup(seed int64, tr *tracer, parent int32) error
	// shape gives the block size, the warm-up op count and the percentile
	// op_tail_us reports, in per-mille. The percentile is fixed per
	// workload, so a faster or slower run cannot switch it.
	shape() (block, warmup, tail int)
	// op runs the next op into result slot k (0 ≤ k < block), recording
	// its layer calls as spans under parent when tr is non-nil.
	op(k int, tr *tracer, parent int32)
	// check verifies the result in slot k and returns a non-nil error for
	// a failed or wrong op. Slots are checked in op order.
	check(k int) error
	// probe runs one layer-only call that the op cannot expose from
	// outside (traced runs only) and checks it; ok=false when the
	// workload has none.
	probe(tr *tracer) (ok bool, err error)
	// counted reports whether the traced run has seen the fixed op prefix
	// its count metrics are taken over; a traced run goes on past its
	// time budget until it has, so counts repeat exactly for a seed.
	counted() bool
	// layer adds the workload's count metrics to m after a traced run,
	// and files the traced op blocks' allocations per op under its own
	// layer's names.
	layer(m map[string]float64, allocs, allocBytes float64)
	// close releases the system under test.
	close()
}

var workloads = map[string]func() workload{
	"route-100k": func() workload { return newRoute(316) },
	"churn-10k":  func() workload { return newChurn(100) },
	"orient-10k": func() workload { return newOrient(100) },
	"core-3k":    func() workload { return newCore(3000) },
}

func workloadNames() string {
	names := slices.Sorted(maps.Keys(workloads))
	return strings.Join(names, ", ")
}

// A run sets its workload up from scratch at least minSetupReps times,
// and more (up to maxSetupReps) while the set-ups so far took less than
// setupBudget in all; setup_s reports the median, and the last set-up is
// the one the timed phase runs on.
const (
	minSetupReps = 3
	maxSetupReps = 9
	setupBudget  = 2 * time.Second
)

// refPerSetup is how many reference-kernel runs follow each set-up.
const refPerSetup = 3

// maxErrs caps the wrong-op messages a run keeps for its output.
const maxErrs = 5

type runConfig struct {
	name    string
	seed    int64
	seconds float64
	traced  bool
}

// report holds everything one run measured.
type report struct {
	setupS    []float64
	setupRef  []time.Duration // refPerSetup reference runs before the first set-up and after each
	warmup    int
	opNs      []int64 // untraced timed ops
	blockEnd  []int   // end of each untraced block in opNs
	blockCPU  []time.Duration
	ref       []time.Duration // one reference run after each untraced block
	tracedNs  []int64         // traced timed ops (traced runs)
	cpu       cpuMeter
	tail      tail
	attempted int
	failed    int
	errs      []string
	probes    int
	timed     time.Duration
	peakRSSKB int64

	// traced runs only
	tr      *tracer
	allocs  uint64 // mallocs over traced op blocks
	bytes   uint64 // bytes allocated over traced op blocks
	layered map[string]float64
}

func (r *report) failRatio() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

func (r *report) record(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < maxErrs {
			r.errs = append(r.errs, err.Error())
		}
	}
}

// timeBlock runs one block of ops, appending each op's wall time to ns.
func timeBlock(w workload, block int, tr *tracer, name string, ns []int64) []int64 {
	for k := 0; k < block; k++ {
		t0 := time.Now()
		sp := tr.begin(name, -1)
		w.op(k, tr, sp)
		tr.end(sp)
		ns = append(ns, int64(time.Since(t0)))
	}
	return ns
}

// checkBlock checks the results of the block just run.
func (r *report) checkBlock(w workload, block int) {
	for k := 0; k < block; k++ {
		r.record(w.check(k))
	}
}

// measure sets the workload up (see minSetupReps), then runs the timed
// phase for cfg.seconds (and at least one block).
func measure(cfg runConfig, newW func() workload) (*report, error) {
	rep := &report{}
	var tr *tracer
	if cfg.traced {
		tr = newTracer(1 << 19)
		rep.tr = tr
	}
	k := newRefKernel()
	refs := func(dst []time.Duration, n int) []time.Duration {
		for range n {
			dst = append(dst, k.run())
		}
		return dst
	}
	rep.setupRef = refs(rep.setupRef, refPerSetup)
	var w workload
	var spent time.Duration
	for i := 0; i < minSetupReps || (i < maxSetupReps && spent < setupBudget); i++ {
		if w != nil {
			w.close()
			w = nil
		}
		runtime.GC()
		start := time.Now()
		sp := tr.begin("setup", -1)
		w = newW()
		if err := w.setup(cfg.seed, tr, sp); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		wsp := tr.begin("setup.warmup", sp)
		block, warmup, _ := w.shape()
		for done := 0; done < warmup; done += block {
			n := min(block, warmup-done)
			for k := 0; k < n; k++ {
				w.op(k, nil, -1)
			}
			for k := 0; k < n; k++ {
				if err := w.check(k); err != nil {
					tr.end(wsp)
					tr.end(sp)
					w.close()
					return nil, fmt.Errorf("warm-up op: %w", err)
				}
			}
		}
		tr.end(wsp)
		tr.end(sp)
		d := time.Since(start)
		spent += d
		rep.setupS = append(rep.setupS, d.Seconds())
		rep.warmup = warmup
		rep.setupRef = refs(rep.setupRef, refPerSetup)
	}
	defer w.close()

	block, _, tailPermille := w.shape()
	rep.cpu.clock = processCPU
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	// A traced run rotates untraced op blocks, traced op blocks and probe
	// blocks, so drift on the machine hits all three alike.
	phases := 1
	if cfg.traced {
		phases = 3
	}
	opSpan := cfg.name + ".op"
	more := func() bool {
		el := time.Since(start)
		// A traced run may overrun its budget, by up to a minute past
		// twice the budget, to complete the op prefix its counts are
		// taken over.
		return el < budget || (cfg.traced && !w.counted() && el < 2*budget+time.Minute)
	}
	for b := 0; b == 0 || more(); b++ {
		switch b % phases {
		case 0:
			rep.cpu.start()
			rep.opNs = timeBlock(w, block, nil, opSpan, rep.opNs)
			rep.blockCPU = append(rep.blockCPU, rep.cpu.stop(block))
			rep.blockEnd = append(rep.blockEnd, len(rep.opNs))
			rep.ref = refs(rep.ref, 1)
			rep.checkBlock(w, block)
		case 1:
			runtime.ReadMemStats(&ms0)
			rep.tracedNs = timeBlock(w, block, tr, opSpan, rep.tracedNs)
			runtime.ReadMemStats(&ms1)
			rep.allocs += ms1.Mallocs - ms0.Mallocs
			rep.bytes += ms1.TotalAlloc - ms0.TotalAlloc
			rep.checkBlock(w, block)
		case 2:
			for k := 0; k < block; k++ {
				ok, err := w.probe(tr)
				if !ok {
					break
				}
				rep.probes++
				rep.record(err)
			}
		}
	}
	rep.timed = time.Since(start)
	rep.tail = segmentTail(rep.scaledOps(), tailPermille)
	rep.peakRSSKB = peakRSSKB()
	if cfg.traced {
		rep.layered = layerMetrics(rep, w)
	}
	return rep, nil
}

// endToEnd lists the end-to-end metrics every workload reports, with units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"op_tail_us", "us"},
	{"op_cpu_us", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics of a traced run, with units. Every
// traced run reports all of them; a layer a workload does not exercise
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"core.run_us", "us"},
	{"core.steps", "count/op"},
	{"core.allocs", "allocs/op"},
	{"dist.run_us", "us"},
	{"dist.steps", "count/op"},
	{"dist.messages", "count/op"},
	{"dist.remote", "count/op"},
	{"dist.allocs", "allocs/op"},
	{"dyn.link_us", "us"},
	{"dyn.await_us", "us"},
	{"dyn.steps", "count/event"},
	{"dyn.messages", "count/event"},
	{"dyn.epochs", "count/event"},
	{"dyn.allocs", "allocs/event"},
	{"dyn.alloc_bytes", "B/event"},
	{"walk.route_us", "us"},
	{"walk.after_churn_us", "us"},
	{"walk.hops", "count"},
	{"walk.ns_per_hop", "ns"},
	{"serve.handler_us", "us"},
	{"serve.self_us", "us"},
	{"serve.allocs", "allocs/req"},
	{"serve.resp_bytes", "B/req"},
	{"setup.topo_s", "s"},
	{"setup.network_s", "s"},
	{"trace.overhead_pct", "%"},
	{"fail_ratio", "ratio"},
}

// spanMetrics maps span names to the per-layer metric reporting their
// median duration, in the metric's unit.
var spanMetrics = map[string]string{
	"core.run":         "core.run_us",
	"dist.run":         "dist.run_us",
	"dyn.link":         "dyn.link_us",
	"dyn.await":        "dyn.await_us",
	"walk.route":       "walk.route_us",
	"walk.after_churn": "walk.after_churn_us",
	"serve.handler":    "serve.handler_us",
	"setup.topo":       "setup.topo_s",
	"setup.network":    "setup.network_s",
}

func layerMetrics(rep *report, w workload) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = 0
	}
	for span, name := range spanMetrics {
		ds := rep.tr.durations(span)
		if len(ds) == 0 {
			continue
		}
		v := float64(median(ds))
		if strings.HasSuffix(name, "_s") {
			m[name] = v / 1e9
		} else {
			m[name] = v / 1e3
		}
	}
	var allocs, allocBytes float64
	if n := len(rep.tracedNs); n > 0 {
		allocs, allocBytes = float64(rep.allocs)/float64(n), float64(rep.bytes)/float64(n)
		if u := median(rep.opNs); u > 0 {
			m["trace.overhead_pct"] = 100 * (float64(median(rep.tracedNs)) - float64(u)) / float64(u)
		}
	}
	w.layer(m, allocs, allocBytes)
	m["fail_ratio"] = rep.failRatio()
	return m
}

// metrics returns the result line's metrics: the end-to-end set, or the
// per-layer set of a traced run.
func (r *report) metrics(traced bool) map[string]metric {
	out := make(map[string]metric)
	if traced {
		for _, l := range perLayer {
			out[l.name] = metric{r.layered[l.name], l.unit}
		}
		return out
	}
	vals := map[string]float64{
		"setup_s":     medianFloat(r.scaledSetup()),
		"op_p50_us":   float64(median(r.scaledOps())) / 1e3,
		"op_tail_us":  float64(r.tail.Value) / 1e3,
		"op_cpu_us":   r.scaledCPU(),
		"peak_rss_mb": float64(r.peakRSSKB) / 1024,
	}
	for _, e := range endToEnd {
		out[e.name] = metric{vals[e.name], e.unit}
	}
	return out
}

// scaledOps returns the untraced op times at reference speed: each block's
// ops scaled by the block's speed factor (see speed.go).
func (r *report) scaledOps() []int64 {
	f := speedFactors(r.ref, len(r.blockEnd))
	out := make([]int64, 0, len(r.opNs))
	lo := 0
	for b, hi := range r.blockEnd {
		for _, ns := range r.opNs[lo:hi] {
			out = append(out, int64(float64(ns)*f[b]))
		}
		lo = hi
	}
	return out
}

// scaledCPU returns the untraced ops' process CPU time per op, in µs, at
// reference speed.
func (r *report) scaledCPU() float64 {
	f := speedFactors(r.ref, len(r.blockEnd))
	var cpu float64
	for b, d := range r.blockCPU {
		cpu += float64(d) * f[b]
	}
	return cpu / 1e3 / float64(max(len(r.opNs), 1))
}

// scaledSetup returns each set-up's time in seconds at reference speed.
// Set-up takes a few seconds at most, so one factor serves the whole
// phase: refNominal over the median of all the reference runs around it.
func (r *report) scaledSetup() []float64 {
	f := float64(refNominal) / float64(medianDur(r.setupRef))
	out := make([]float64, len(r.setupS))
	for i, s := range r.setupS {
		out[i] = s * f
	}
	return out
}
