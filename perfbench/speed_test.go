package main

import (
	"testing"
	"time"
)

func TestSpeedFactorsTakeTheMedianAroundEachBlock(t *testing.T) {
	// Twelve blocks: the machine runs at reference speed for six, then at
	// half speed; one reference run in the slow half is an outlier.
	ref := make([]time.Duration, 12)
	for b := range ref {
		ref[b] = refNominal
		if b >= 6 {
			ref[b] = 2 * refNominal
		}
	}
	ref[9] = 10 * refNominal
	f := speedFactors(ref, len(ref))
	for b, want := range map[int]float64{0: 1, 1: 1, 10: 0.5, 11: 0.5} {
		if f[b] != want {
			t.Errorf("factor of block %d = %v, want %v", b, f[b], want)
		}
	}
	if f[9] != 0.5 {
		t.Errorf("factor of block 9 = %v, want 0.5: one slow reference run must not move it", f[9])
	}
	if got := speedFactors(nil, 2); got[0] != 1 || got[1] != 1 {
		t.Errorf("factors without reference runs = %v, want 1", got)
	}
}

func TestScaledMetricsCancelAUniformSlowdown(t *testing.T) {
	// The same two blocks of two ops, once at reference speed and once on
	// a machine twice as slow: scaled, both read the same.
	mk := func(slow int64) *report {
		d := time.Duration(slow)
		return &report{
			opNs:     []int64{100 * slow, 300 * slow, 200 * slow, 400 * slow},
			blockEnd: []int{2, 4},
			blockCPU: []time.Duration{500 * d, 700 * d},
			ref:      []time.Duration{refNominal * d, refNominal * d},
			setupS:   []float64{0.5 * float64(slow)},
			setupRef: []time.Duration{refNominal * d, refNominal * d, refNominal * d,
				refNominal * d, refNominal * d, refNominal * d},
		}
	}
	fast, slow := mk(1), mk(2)
	if a, b := median(fast.scaledOps()), median(slow.scaledOps()); a != 200 || b != a {
		t.Errorf("scaled op medians = %d and %d, want 200 both", a, b)
	}
	if a, b := fast.scaledCPU(), slow.scaledCPU(); a != 0.3 || b != a {
		t.Errorf("scaled CPU per op = %v and %v µs, want 0.3 both", a, b)
	}
	if a, b := fast.scaledSetup(), slow.scaledSetup(); a[0] != 0.5 || b[0] != a[0] {
		t.Errorf("scaled set-up = %v and %v s, want 0.5 both", a, b)
	}
}

func TestRefKernelRuns(t *testing.T) {
	k := newRefKernel()
	if d := k.run(); d <= 0 {
		t.Errorf("reference run took %v", d)
	}
}
