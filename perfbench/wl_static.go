package main

import (
	"context"
	"fmt"

	lr "linkreversal"
)

// orient is orient-10k: one op is one RunDistributedWith (PR, sharded
// engine, trace off) on a side×side grid whose destination is drawn from
// the seed. The grid's default orientation points every edge away from
// node 0, so how much of it is bad depends on where the destination sits:
// destinations are drawn one per cell of an orientStrata×orientStrata
// partition of the grid, which keeps every seed's mix of cheap and costly
// ops alike, and ops visit them in a seeded order.
type orient struct {
	side  int
	topos []*lr.Topology
	order []int
	next  int
	slot  struct {
		rep *lr.DistReport
		err error
		i   int
	}
	steps, msgs, remote []int64
}

const orientStrata = 8

// orientCounts is how many traced ops a traced run takes its counts from.
const orientCounts = 64

func newOrient(side int) *orient { return &orient{side: side} }

func (o *orient) shape() (block, warmup, tail int) { return 1, 8, 900 }

func (o *orient) setup(seed int64, tr *tracer, parent int32) error {
	sp := tr.begin("setup.topo", parent)
	defer tr.end(sp)
	base := lr.Grid(o.side, o.side)
	dr := rng(seed, streamDests)
	cell := o.side / orientStrata
	for a := 0; a < orientStrata; a++ {
		for b := 0; b < orientStrata; b++ {
			i, j := a*cell+dr.IntN(cell), b*cell+dr.IntN(cell)
			o.topos = append(o.topos, &lr.Topology{
				Name:    fmt.Sprintf("%s-dest-%d-%d", base.Name, i, j),
				Graph:   base.Graph,
				Initial: base.Initial,
				Dest:    lr.NodeID(i*o.side + j),
			})
		}
	}
	or := rng(seed, streamOrder)
	o.order = make([]int, 0, 16*len(o.topos))
	for len(o.order) < cap(o.order) {
		o.order = append(o.order, or.Perm(len(o.topos))...)
	}
	return nil
}

func (o *orient) op(_ int, tr *tracer, parent int32) {
	i := o.order[o.next%len(o.order)]
	o.next++
	sp := tr.begin("dist.run", parent)
	rep, err := lr.RunDistributedWith(context.Background(), o.topos[i], lr.DistPR, lr.DistOptions{
		Engine:      lr.DistSharded,
		Partition:   lr.DistPartitionBlock,
		RecordTrace: lr.DistTraceOff,
	})
	tr.end(sp)
	o.slot.rep, o.slot.err, o.slot.i = rep, err, i
	if sp >= 0 && err == nil && len(o.steps) < orientCounts {
		o.steps = append(o.steps, int64(rep.Steps))
		o.msgs = append(o.msgs, int64(rep.Messages))
		o.remote = append(o.remote, int64(rep.Remote))
	}
}

func (o *orient) check(int) error {
	rep, topo := o.slot.rep, o.topos[o.slot.i]
	switch {
	case o.slot.err != nil:
		return fmt.Errorf("RunDistributedWith(%s): %w", topo.Name, o.slot.err)
	case !rep.Acyclic || !rep.DestinationOriented:
		return fmt.Errorf("RunDistributedWith(%s): acyclic=%v destination-oriented=%v",
			topo.Name, rep.Acyclic, rep.DestinationOriented)
	}
	return nil
}

func (o *orient) probe(*tracer) (bool, error) { return false, nil }

func (o *orient) counted() bool { return len(o.steps) == orientCounts }

func (o *orient) layer(m map[string]float64, allocs, _ float64) {
	m["dist.allocs"] = allocs
	m["dist.steps"] = mean(o.steps)
	m["dist.messages"] = mean(o.msgs)
	m["dist.remote"] = mean(o.remote)
}

func (o *orient) close() {}

// core is core-3k: one op is one RunTopology with PR, under the default
// greedy scheduler, on BadChain(nb). The input has no random part, so
// every op does the same work: the seed cannot change core.steps.
type core struct {
	nb   int
	topo *lr.Topology
	slot struct {
		rep *lr.Report
		err error
	}
	steps []int64
}

// coreCounts is how many traced ops a traced run takes its counts from.
const coreCounts = 8

func newCore(nb int) *core { return &core{nb: nb} }

func (c *core) shape() (block, warmup, tail int) { return 1, 2, 900 }

func (c *core) setup(_ int64, tr *tracer, parent int32) error {
	sp := tr.begin("setup.topo", parent)
	c.topo = lr.BadChain(c.nb)
	tr.end(sp)
	return nil
}

func (c *core) op(_ int, tr *tracer, parent int32) {
	sp := tr.begin("core.run", parent)
	c.slot.rep, c.slot.err = lr.RunTopology(c.topo, lr.Config{Algorithm: lr.PR})
	tr.end(sp)
	if sp >= 0 && c.slot.err == nil && len(c.steps) < coreCounts {
		c.steps = append(c.steps, int64(c.slot.rep.Steps))
	}
}

func (c *core) check(int) error {
	rep := c.slot.rep
	switch {
	case c.slot.err != nil:
		return fmt.Errorf("RunTopology(%s): %w", c.topo.Name, c.slot.err)
	case !rep.DestinationOriented:
		return fmt.Errorf("RunTopology(%s): not destination-oriented", c.topo.Name)
	// PR on BadChain(nb) performs exactly nb reversals: the wave starts
	// at the sink nb and moves toward the destination, each node
	// reversing its one edge not in its list — the link toward the
	// destination — exactly once. The schedule cannot change it.
	case rep.TotalReversals != c.nb:
		return fmt.Errorf("RunTopology(%s): %d reversals, want %d", c.topo.Name, rep.TotalReversals, c.nb)
	}
	return nil
}

func (c *core) probe(*tracer) (bool, error) { return false, nil }

func (c *core) counted() bool { return len(c.steps) == coreCounts }

func (c *core) layer(m map[string]float64, allocs, _ float64) {
	m["core.allocs"] = allocs
	m["core.steps"] = mean(c.steps)
}

func (c *core) close() {}
