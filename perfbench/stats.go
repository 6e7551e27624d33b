package main

import (
	"cmp"
	"fmt"
	"slices"
	"syscall"
	"time"
)

// tailLadder lists the percentiles op_tail_us may fall back to, in
// per-mille, highest first. Each workload fixes its own rung (see
// workload.shape), sized so that a run of the benchmark's length leaves
// well over minBeyond samples beyond it; the ladder only serves runs too
// short for that, such as the tests'.
var tailLadder = []int{990, 900, 500}

// minBeyond is how many samples must lie beyond the reported tail.
const minBeyond = 10

// percentile returns the nearest-rank permille-th percentile of sorted
// (ascending): the value at rank ceil(permille·n/1000).
func percentile(sorted []int64, permille int) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := (permille*n + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tail is a percentile chosen by the ≥minBeyond-samples-beyond rule.
type tail struct {
	Permille int   // percentile in per-mille (990 = p99)
	Value    int64 // sample value at that percentile
	Beyond   int   // samples ranked beyond it
	N        int   // sample count
	Segments int   // consecutive segments of the run it is the median over
}

// Label renders the percentile as "p99", "p90", "p50".
func (t tail) Label() string { return fmt.Sprintf("p%d", t.Permille/10) }

// pickTail returns the want-th per-mille percentile of sorted when at
// least minBeyond samples rank beyond it, and otherwise the highest lower
// ladder rung that has them. Below 2·minBeyond samples no rung qualifies;
// the median is returned and Beyond says how thin it is.
func pickTail(sorted []int64, want int) tail {
	n := len(sorted)
	for _, p := range tailLadder {
		rank := (p*n + 999) / 1000
		if p <= want && rank >= 1 && n-rank >= minBeyond {
			return tail{Permille: p, Value: sorted[rank-1], Beyond: n - rank, N: n}
		}
	}
	p := tailLadder[len(tailLadder)-1]
	rank := max((p*n+999)/1000, 1)
	return tail{Permille: p, Value: percentile(sorted, p), Beyond: max(n-rank, 0), N: n}
}

// maxTailSegments caps the consecutive segments of a run whose tails
// op_tail_us takes the median of.
const maxTailSegments = 5

// segmentTail cuts ops, in run order, into as many equal consecutive
// segments (at most maxTailSegments) as still leave minBeyond samples
// beyond the want-th percentile in each, picks each segment's tail as
// pickTail does, and returns the median segment's. A collector pause or
// a slow stretch of the machine then moves one segment's tail, not the
// run's. Beyond is the median segment's; N counts all samples.
func segmentTail(ops []int64, want int) tail {
	per := minBeyond * 1000 / (1000 - want) // samples a segment needs
	segs := min(maxTailSegments, max(1, len(ops)/per))
	ts := make([]tail, segs)
	for i := range ts {
		ts[i] = pickTail(sortedCopy(ops[i*len(ops)/segs:(i+1)*len(ops)/segs]), want)
	}
	slices.SortStableFunc(ts, func(a, b tail) int { return cmp.Compare(a.Value, b.Value) })
	t := ts[(segs+1)/2-1]
	t.N, t.Segments = len(ops), segs
	return t
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median of xs (nearest rank, lower middle); 0 for an empty slice.
func median(xs []int64) int64 { return percentile(sortedCopy(xs), 500) }

// medianFloat is median for float64 samples.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[(len(s)+1)/2-1]
}

// processCPU returns the process's user+sys CPU time (getrusage), summed
// over all its threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuMeter accumulates process CPU time over the timed windows of a run
// (the op blocks) and leaves out everything between them (result checks,
// per-block preparation). clock is processCPU outside tests.
type cpuMeter struct {
	clock func() time.Duration
	open  time.Duration
	total time.Duration
	ops   int
}

// start opens a timed window.
func (m *cpuMeter) start() { m.open = m.clock() }

// stop closes the window opened by start, credits it with ops ops and
// returns the window's CPU time.
func (m *cpuMeter) stop(ops int) time.Duration {
	d := m.clock() - m.open
	m.total += d
	m.ops += ops
	return d
}

// perOp returns CPU microseconds per op over all closed windows.
func (m *cpuMeter) perOp() (float64, error) {
	if m.ops == 0 {
		return 0, fmt.Errorf("no ops timed")
	}
	return float64(m.total.Nanoseconds()) / 1e3 / float64(m.ops), nil
}
