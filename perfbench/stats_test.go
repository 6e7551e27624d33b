package main

import (
	"testing"
	"time"
)

// seq returns 1..n as sorted samples.
func seq(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n, permille int
		want        int64
	}{
		{1, 500, 1}, {2, 500, 1}, {3, 500, 2}, {10, 900, 9}, {100, 990, 99},
		{1000, 990, 990}, {1001, 990, 991}, {7, 1000, 7}, {7, 1, 1},
	} {
		if got := percentile(seq(c.n), c.permille); got != c.want {
			t.Errorf("percentile(1..%d, %d‰) = %d, want %d", c.n, c.permille, got, c.want)
		}
	}
	if got := percentile(nil, 500); got != 0 {
		t.Errorf("percentile(empty) = %d, want 0", got)
	}
}

func TestPickTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, want  int
		permille int
		value    int64
		beyond   int
	}{
		// p99 needs 1000 samples: rank 990 leaves exactly 10 beyond.
		{100000, 990, 990, 99000, 1000},
		{1000, 990, 990, 990, 10},
		// One sample short of p99 falls back a whole rung, to p90.
		{999, 990, 900, 900, 99},
		{100, 990, 900, 90, 10},
		// p90 needs 100; below it the median is the highest rung left.
		{99, 990, 500, 50, 49},
		{20, 990, 500, 10, 10},
		// Small samples: no rung has 10 beyond it; the median is
		// reported with its (thin) count beyond.
		{19, 990, 500, 10, 9},
		{3, 990, 500, 2, 1},
		{1, 990, 500, 1, 0},
		// A workload that fixes p90 keeps it even with samples enough
		// for p99, so a faster run cannot climb a rung.
		{100000, 900, 900, 90000, 10000},
		{1000, 900, 900, 900, 100},
		{99, 900, 500, 50, 49},
	} {
		got := pickTail(seq(c.n), c.want)
		if got.Permille != c.permille || got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("pickTail(1..%d, %d) = %+v, want p%d‰ value %d beyond %d", c.n, c.want, got, c.permille, c.value, c.beyond)
		}
		if c.n >= 2*minBeyond && got.Beyond < minBeyond {
			t.Errorf("pickTail(1..%d, %d) keeps only %d samples beyond", c.n, c.want, got.Beyond)
		}
	}
	if got := pickTail(nil, 990); got.N != 0 || got.Value != 0 || got.Beyond != 0 {
		t.Errorf("pickTail(empty) = %+v", got)
	}
}

func TestSegmentTailIsTheMedianSegments(t *testing.T) {
	// 5000 ops in run order, 1..1000 five times over; the third thousand
	// also holds a burst of 100 slow ops. p99 needs 1000 samples, so there
	// are five segments, and the burst moves only one of their tails.
	ops := make([]int64, 0, 5000)
	for s := 0; s < 5; s++ {
		ops = append(ops, seq(1000)...)
	}
	for i := 2000; i < 2100; i++ {
		ops[i] = 1e6
	}
	got := segmentTail(ops, 990)
	if got.Segments != 5 || got.Value != 990 || got.Beyond != 10 || got.N != 5000 {
		t.Errorf("segmentTail = %+v, want 5 segments, p99 990 with 10 beyond, of 5000", got)
	}
	if whole := pickTail(sortedCopy(ops), 990); whole.Value != 1e6 {
		t.Errorf("the whole run's p99 = %d; the burst should reach it", whole.Value)
	}
	// Too few samples for two segments: one, as pickTail.
	if got := segmentTail(seq(150), 900); got.Segments != 1 || got.Value != 135 || got.Beyond != 15 {
		t.Errorf("segmentTail(1..150, p90) = %+v, want one segment, value 135, 15 beyond", got)
	}
	if got := segmentTail(nil, 990); got.Segments != 1 || got.N != 0 {
		t.Errorf("segmentTail(empty) = %+v", got)
	}
}

func TestTailLabel(t *testing.T) {
	for permille, want := range map[int]string{990: "p99", 900: "p90", 500: "p50"} {
		if got := (tail{Permille: permille}).Label(); got != want {
			t.Errorf("Label(%d) = %q, want %q", permille, got, want)
		}
	}
}

// fakeClock returns the CPU readings in ts, one per call.
func fakeClock(ts ...time.Duration) func() time.Duration {
	return func() time.Duration {
		t := ts[0]
		ts = ts[1:]
		return t
	}
}

func TestCPUMeterCountsOnlyTimedWindows(t *testing.T) {
	// Two windows of 4 ops: 0→10ms and 25→35ms. The 15ms spent between
	// them (checking results) is not charged to the ops.
	m := cpuMeter{clock: fakeClock(0, 10*time.Millisecond, 25*time.Millisecond, 35*time.Millisecond)}
	m.start()
	m.stop(4)
	m.start()
	m.stop(4)
	got, err := m.perOp()
	if err != nil {
		t.Fatal(err)
	}
	if want := 20e3 / 8; got != want {
		t.Errorf("perOp = %v µs, want %v", got, want)
	}
}

func TestCPUMeterNoOps(t *testing.T) {
	var m cpuMeter
	if _, err := m.perOp(); err == nil {
		t.Error("perOp with no ops succeeded")
	}
}

func TestProcessCPUAdvances(t *testing.T) {
	before := processCPU()
	deadline := time.Now().Add(20 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	if after := processCPU(); after <= before {
		t.Errorf("process CPU did not advance over a busy loop: %v then %v (%d iterations)", before, after, x)
	}
}

func TestMedians(t *testing.T) {
	if got := median([]int64{5, 1, 3, 2}); got != 2 {
		t.Errorf("median = %d, want 2 (lower middle)", got)
	}
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("medianFloat = %v, want 2", got)
	}
	if got := medianFloat(nil); got != 0 {
		t.Errorf("medianFloat(empty) = %v", got)
	}
}
