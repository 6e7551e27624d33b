package main

import (
	"math/rand/v2"
	"slices"
	"time"
)

// The shared 2-vCPU machines this benchmark runs on change speed for
// minutes at a time: two ten-seed sets of the same code, an hour apart,
// differed by 35–42 % on every time metric, in CPU time as much as in wall
// time. No run length averages that away. So the end-to-end time metrics
// are reported at reference speed: each timed block and each set-up is
// followed by runs of a fixed reference kernel, and its times are scaled
// by refNominal over the median reference time around it. The kernel lives
// in this package and calls nothing in the library, so a change to the
// library moves the scaled metrics exactly as it moves the raw ones, while
// a slower stretch of the machine slows the kernel too and cancels out.
// The raw figures stay in the provenance line.

// refNominal is the reference kernel's median time on a quiet stretch of
// the machine the bounds were set on (Intel Xeon, 2 vCPUs, Go 1.24); it
// only sets the scale, so that scaled times read close to raw ones there.
const refNominal = 2200 * time.Microsecond

// refWindow is how many reference runs on each side of a block its speed
// factor takes the median over.
const refWindow = 4

// refKernel mixes the two kinds of work whose speed drifts on a shared
// machine, in the proportion that tracked all four workloads best there:
// about 40 % of its time scans an adjacency list with a branch per link
// (throughput-bound, slowed by a busy sibling hyperthread, like the
// library's own scans and allocations), and about 60 % chases pointers
// through 512 KiB (latency-bound, slowed by memory contention). Its inputs
// are drawn once from a fixed seed, so every run does the same work.
type refKernel struct {
	adj   [][]int32 // a 3000-node path
	down  []bool    // one flag per adjacency entry
	chase []int32   // a random cyclic permutation
	sink  int
}

func newRefKernel() *refKernel {
	r := rand.New(rand.NewPCG(0x5eed, 0x7ef))
	const nodes, n = 3000, 1 << 17 // 1<<17 int32s = 512 KiB
	k := &refKernel{adj: make([][]int32, nodes), down: make([]bool, 2*nodes), chase: make([]int32, n)}
	for u := range k.adj {
		k.adj[u] = []int32{int32(max(u-1, 0)), int32(min(u+1, nodes-1))}
	}
	for i := range k.down {
		k.down[i] = r.IntN(3) == 0
	}
	p := r.Perm(n)
	for i := range p {
		k.chase[p[i]] = int32(p[(i+1)%n])
	}
	return k
}

// run returns the wall time of one pass of the kernel. A first, untimed
// pass brings its 530 KiB back into the caches the workload just used, so
// the timed pass measures the machine and not how much of the cache the
// block before it evicted.
func (k *refKernel) run() time.Duration {
	k.pass()
	t0 := time.Now()
	k.pass()
	return time.Since(t0)
}

func (k *refKernel) pass() {
	sinks := 0
	for range 100 {
		for u, nbrs := range k.adj {
			sink := true
			for j := range nbrs {
				if k.down[2*u+j] {
					sink = false
				}
			}
			if sink {
				sinks++
			}
		}
	}
	p := int32(0)
	for range 1 << 17 {
		p = k.chase[p]
	}
	k.sink += sinks + int(p)
}

// speedFactors returns, for each of nb blocks, refNominal over the median
// of the reference times ref[b-refWindow .. b+refWindow], where ref[b] was
// taken right after block b.
func speedFactors(ref []time.Duration, nb int) []float64 {
	f := make([]float64, nb)
	for b := range f {
		lo, hi := max(0, b-refWindow), min(len(ref), b+refWindow+1)
		if lo >= hi {
			f[b] = 1
			continue
		}
		f[b] = float64(refNominal) / float64(medianDur(ref[lo:hi]))
	}
	return f
}

func medianDur(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[(len(s)+1)/2-1]
}
