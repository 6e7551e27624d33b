package main

import (
	"errors"
	"fmt"

	lr "linkreversal"
)

// churn is churn-10k: on a side×side grid held by the sharded
// DynamicNetwork, one op fails a link, or heals the link the previous op
// failed, then awaits quiescence and reads a fixed batch of routes off the
// newly published epoch. At most one link is down at a time, so the grid
// stays connected and no op may fail.
//
// Failing a link a node has other downhill links beside costs the
// protocol no reversal, so fails alternate between two kinds: a seeded
// interior link, and a repair: the only downhill link of the first node,
// in a seeded stream of candidates, that has exactly one in the current
// snapshot. Losing it leaves that node a sink, so the link-reversal repair
// runs.
type churn struct {
	side  int
	net   *lr.DynamicNetwork
	edges [][2]lr.NodeID // seeded interior links, failed in turn
	cands []lr.NodeID    // seeded candidate nodes for repair fails
	srcs  []lr.NodeID    // seeded read sources
	next  int            // ops run so far
	edge  int            // next entry of edges
	cand  int            // next entry of cands
	down  [2]lr.NodeID   // the link the last fail took down
	slots []churnSlot

	last *lr.NetworkSnapshot // snapshot of the last checked op

	// per-event counts over the first churnCounts events
	steps, msgs, epochs []int64
	readNs, readHops    []int64
}

// churnReads is the batch of RouteInto reads after each event: the two
// endpoints of the changed link, then seeded random sources.
const churnReads = 8

// churnCandidates caps the candidates a repair fail tries before it falls
// back to a seeded interior link.
const churnCandidates = 256

// churnCounts is how many traced events a traced run takes its counts
// from.
const churnCounts = 256

type churnSlot struct {
	link     [2]lr.NodeID
	fail     bool
	linkErr  error
	awaitErr error
	snap     *lr.NetworkSnapshot
	src      [churnReads]lr.NodeID
	ok       [churnReads]bool
	paths    [churnReads][]lr.NodeID
	readNs   [churnReads]int64
	traced   bool
}

func newChurn(side int) *churn { return &churn{side: side} }

func (c *churn) shape() (block, warmup, tail int) { return 16, 32, 990 }

func (c *churn) setup(seed int64, tr *tracer, parent int32) error {
	sp := tr.begin("setup.topo", parent)
	topo := lr.Grid(c.side, c.side)
	n, side := c.side*c.side, c.side
	id := func(i, j int) lr.NodeID { return lr.NodeID(i*side + j) }
	er := rng(seed, streamEdges)
	c.edges = make([][2]lr.NodeID, 1<<14)
	for i := range c.edges {
		// Both endpoints interior: rows and columns 1..side-2.
		r, col := 1+er.IntN(side-2), 1+er.IntN(side-3)
		if er.IntN(2) == 0 {
			c.edges[i] = [2]lr.NodeID{id(r, col), id(r, col+1)}
		} else {
			c.edges[i] = [2]lr.NodeID{id(col, r), id(col+1, r)}
		}
	}
	cr := rng(seed, streamRepairs)
	c.cands = make([]lr.NodeID, 1<<14)
	for i := range c.cands {
		c.cands[i] = lr.NodeID(cr.IntN(n))
	}
	sr := rng(seed, streamSources)
	c.srcs = make([]lr.NodeID, 1<<14)
	for i := range c.srcs {
		c.srcs[i] = lr.NodeID(sr.IntN(n))
	}
	block, _, _ := c.shape()
	c.slots = make([]churnSlot, block)
	for i := range c.slots {
		for j := range c.slots[i].paths {
			c.slots[i].paths[j] = make([]lr.NodeID, 0, 4*side)
		}
	}
	tr.end(sp)

	sp = tr.begin("setup.network", parent)
	defer tr.end(sp)
	net, err := shardedNetwork(topo)
	if err != nil {
		return err
	}
	c.net = net
	if err := net.AwaitQuiescence(); err != nil {
		return fmt.Errorf("initial stabilization: %w", err)
	}
	c.last = net.ReadSnapshot()
	return nil
}

func (c *churn) op(k int, tr *tracer, parent int32) {
	s := &c.slots[k]
	i := c.next
	c.next++
	s.fail = i%2 == 0
	switch {
	case !s.fail:
		s.link = c.down
	case i%4 == 2:
		s.link = c.repairLink()
	default:
		s.link = c.edges[c.edge%len(c.edges)]
		c.edge++
	}
	c.down = s.link
	s.traced = tr != nil && parent >= 0

	sp := tr.begin("dyn.link", parent)
	if s.fail {
		s.linkErr = c.net.FailLink(s.link[0], s.link[1])
	} else {
		s.linkErr = c.net.AddLink(s.link[0], s.link[1])
	}
	tr.end(sp)
	sp = tr.begin("dyn.await", parent)
	s.awaitErr = c.net.AwaitQuiescence()
	tr.end(sp)

	snap := c.net.ReadSnapshot()
	s.snap = snap
	for j := 0; j < churnReads; j++ {
		src := c.srcs[(i*churnReads+j)%len(c.srcs)]
		if j < 2 {
			src = s.link[j]
		}
		s.src[j] = src
		sp := tr.begin("walk.after_churn", parent)
		s.paths[j], s.ok[j] = snap.RouteInto(src, snap.Dest, snap.NumNodes(), s.paths[j][:0])
		tr.end(sp)
		if sp >= 0 {
			s.readNs[j] = tr.spans[sp].end - tr.spans[sp].start
		}
	}
}

// repairLink returns the only downhill link of the next candidate node
// that has exactly one in the current snapshot, or the next seeded
// interior link when none of churnCandidates candidates has.
func (c *churn) repairLink() [2]lr.NodeID {
	snap := c.net.ReadSnapshot()
	for range churnCandidates {
		u := c.cands[c.cand%len(c.cands)]
		c.cand++
		if u == snap.Dest {
			continue
		}
		var down [2]lr.NodeID
		n := 0
		for _, v := range snap.Links(u) {
			if snap.Heights[v].Less(snap.Heights[u]) {
				down, n = [2]lr.NodeID{u, v}, n+1
			}
		}
		if n == 1 {
			return down
		}
	}
	l := c.edges[c.edge%len(c.edges)]
	c.edge++
	return l
}

func (c *churn) check(k int) error {
	s := &c.slots[k]
	verb := "AddLink"
	if s.fail {
		verb = "FailLink"
	}
	prev := c.last
	c.last = s.snap
	switch {
	case s.linkErr != nil:
		return fmt.Errorf("%s%v: %w", verb, s.link, s.linkErr)
	case s.awaitErr != nil:
		return fmt.Errorf("AwaitQuiescence after %s%v: %w", verb, s.link, s.awaitErr)
	case !s.snap.Quiescent:
		return fmt.Errorf("snapshot after %s%v is not quiescent", verb, s.link)
	case s.snap.Epoch <= prev.Epoch:
		return fmt.Errorf("epoch did not advance after %s%v: %d then %d", verb, s.link, prev.Epoch, s.snap.Epoch)
	}
	if linked := hasLink(s.snap.Links(s.link[0]), s.link[1]); linked == s.fail {
		return fmt.Errorf("snapshot after %s%v shows the link %s", verb, s.link, map[bool]string{true: "up", false: "down"}[linked])
	}
	var errs []error
	for j := 0; j < churnReads; j++ {
		if !s.ok[j] {
			errs = append(errs, fmt.Errorf("no route from %d after %s%v", s.src[j], verb, s.link))
		} else if err := checkPath(s.snap, s.src[j], s.paths[j]); err != nil {
			errs = append(errs, err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if s.traced && len(c.steps) < churnCounts {
		c.steps = append(c.steps, int64(s.snap.Steps-prev.Steps))
		c.msgs = append(c.msgs, int64(s.snap.Messages-prev.Messages))
		c.epochs = append(c.epochs, int64(s.snap.Epoch-prev.Epoch))
		for j := 0; j < churnReads; j++ {
			c.readNs = append(c.readNs, s.readNs[j])
			c.readHops = append(c.readHops, int64(len(s.paths[j])-1))
		}
	}
	return nil
}

func (c *churn) probe(*tracer) (bool, error) { return false, nil }

func (c *churn) counted() bool { return len(c.steps) == churnCounts }

func (c *churn) layer(m map[string]float64, allocs, allocBytes float64) {
	m["dyn.allocs"], m["dyn.alloc_bytes"] = allocs, allocBytes
	m["dyn.steps"] = mean(c.steps)
	m["dyn.messages"] = mean(c.msgs)
	m["dyn.epochs"] = mean(c.epochs)
	m["walk.hops"] = mean(c.readHops)
	m["walk.ns_per_hop"] = perHop(c.readNs, c.readHops)
}

func (c *churn) close() {
	if c.net != nil {
		c.net.Stop()
	}
}
