package dist

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"linkreversal/internal/graph"
	"linkreversal/internal/workload"
)

// churnCycle fails the link {u,v}, awaits quiescence, heals it and awaits
// again — one fail+heal cycle of the control plane.
func churnCycle(tb testing.TB, net *DynamicNetwork, u, v graph.NodeID) {
	if err := net.FailLink(u, v); err != nil {
		tb.Fatal(err)
	}
	if err := net.AwaitQuiescence(); err != nil {
		tb.Fatal(err)
	}
	if err := net.AddLink(u, v); err != nil {
		tb.Fatal(err)
	}
	if err := net.AwaitQuiescence(); err != nil {
		tb.Fatal(err)
	}
}

// gridCentreLink returns an interior link of a side×side grid.
func gridCentreLink(side int) (graph.NodeID, graph.NodeID) {
	u := graph.NodeID(side/2*side + side/2)
	return u, u + 1
}

// TestChurnCycleAllocs pins the copy-on-write adjacency: a fail+heal cycle
// allocates the rows it touches, one header-table clone per publication
// and the two snapshots, so its count does not grow with the network.
func TestChurnCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	measure := func(side int) float64 {
		net, err := NewDynamicNetworkWith(workload.Grid(side, side), DynOptions{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer net.Stop()
		if err := net.AwaitQuiescence(); err != nil {
			t.Fatal(err)
		}
		u, v := gridCentreLink(side)
		return testing.AllocsPerRun(20, func() { churnCycle(t, net, u, v) })
	}
	small, large := measure(10), measure(100)
	t.Logf("allocs per fail+heal cycle: 10x10 = %v, 100x100 = %v", small, large)
	if small != large {
		t.Errorf("allocs per cycle grow with n: %v at 10x10, %v at 100x100", small, large)
	}
	if large > 16 {
		t.Errorf("fail+heal cycle allocates %v objects, want ≤ 16", large)
	}
}

// BenchmarkDynChurnCycle times one fail+heal cycle, both awaits included,
// on an interior link of a 100×100 grid.
func BenchmarkDynChurnCycle(b *testing.B) {
	net, err := NewDynamicNetworkWith(workload.Grid(100, 100), DynOptions{Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer net.Stop()
	if err := net.AwaitQuiescence(); err != nil {
		b.Fatal(err)
	}
	u, v := gridCentreLink(100)
	b.ReportAllocs()
	for b.Loop() {
		churnCycle(b, net, u, v)
	}
}

// churnModel is the reference model FuzzDynChurn checks a DynamicNetwork
// against: a plain link set plus the node ledger.
type churnModel struct {
	n       int
	dest    graph.NodeID
	links   map[graph.Edge]struct{}
	dead    []bool
	crashed []bool
}

func newChurnModel(topo *workload.Topology) *churnModel {
	n := topo.Graph.NumNodes()
	m := &churnModel{
		n:       n,
		dest:    topo.Dest,
		links:   make(map[graph.Edge]struct{}),
		dead:    make([]bool, n),
		crashed: make([]bool, n),
	}
	for _, e := range topo.Graph.Edges() {
		m.links[e] = struct{}{}
	}
	return m
}

func (m *churnModel) valid(u graph.NodeID) bool {
	return int(u) >= 0 && int(u) < m.n && !m.dead[u]
}

// nbrs returns u's neighbours in ascending order.
func (m *churnModel) nbrs(u graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for e := range m.links {
		switch u {
		case e.U:
			out = append(out, e.V)
		case e.V:
			out = append(out, e.U)
		}
	}
	slices.Sort(out)
	return out
}

func (m *churnModel) linked(u, v graph.NodeID) bool {
	_, ok := m.links[graph.NormalizedEdge(u, v)]
	return ok
}

// linkErr is the error the network must return for a link op on {u,v}:
// nil when the op applies.
func (m *churnModel) linkErr(u, v graph.NodeID, wantLinked bool) error {
	switch {
	case !m.valid(u) || !m.valid(v):
		return ErrUnknownNode
	case u == v:
		return ErrSelfLink
	case m.linked(u, v) != wantLinked:
		if wantLinked {
			return ErrNoSuchLink
		}
		return ErrLinkExists
	}
	return nil
}

// cut returns the live nodes with no path to the destination, ascending,
// by BFS over the model's links; crashed nodes connect like live ones.
func (m *churnModel) cut() []graph.NodeID {
	reach := make([]bool, m.n)
	reach[m.dest] = true
	q := []graph.NodeID{m.dest}
	for h := 0; h < len(q); h++ {
		for _, v := range m.nbrs(q[h]) {
			if !reach[v] {
				reach[v] = true
				q = append(q, v)
			}
		}
	}
	var out []graph.NodeID
	for u := 0; u < m.n; u++ {
		if !m.dead[u] && !reach[u] {
			out = append(out, graph.NodeID(u))
		}
	}
	return out
}

// requireModelLinks asserts that s describes exactly the model's link set
// and removed nodes.
func requireModelLinks(t *testing.T, m *churnModel, s *Snapshot, label string) {
	t.Helper()
	if s.NumNodes() != m.n {
		t.Fatalf("%s: snapshot has %d nodes, model %d", label, s.NumNodes(), m.n)
	}
	for u := 0; u < m.n; u++ {
		id := graph.NodeID(u)
		if got, want := s.Links(id), m.nbrs(id); !slices.Equal(got, want) {
			t.Fatalf("%s: links of %d = %v, model %v", label, u, got, want)
		}
		if s.Removed(id) != m.dead[u] {
			t.Fatalf("%s: removed mark of %d = %v, model %v", label, u, s.Removed(id), m.dead[u])
		}
	}
}

// Churn script opcodes: each op is three bytes (opcode, a, b).
const (
	churnAddLink = iota
	churnFailLink
	churnAddNode
	churnRemoveNode
	churnCrash
	churnRecover
	churnAwait
	churnOpcodes = churnAwait + 2 // two await codes, so awaits are frequent
)

// FuzzDynChurn decodes bytes into a bounded churn script on a small grid
// and runs it against a DynamicNetwork and a plain link-set model. At every
// await point the network must agree with the model: the published and
// direct snapshots list exactly the model's links, a partition report
// names exactly the model's BFS cut (and a nil return means no cut), no
// earlier published snapshot has changed, epochs advance with every
// topology change, and with no node crashed a clean quiescence routes
// every live node to the destination. Every op's error must be the one the
// model predicts.
func FuzzDynChurn(f *testing.F) {
	// Cut the destination off a 2×2 grid, then heal one link.
	f.Add(uint8(0), uint8(0), uint8(1), []byte{1, 0, 0, 6, 0, 0, 1, 0, 0, 6, 0, 0, 0, 0, 1, 6, 0, 0})
	// Crash a node, fail a link next to it while it is dark, recover.
	f.Add(uint8(1), uint8(1), uint8(2), []byte{4, 4, 0, 1, 4, 0, 7, 0, 0, 5, 4, 0, 6, 0, 0})
	// Grow a node hanging off node 7, remove 7 (its cut vertex), then the
	// stranded node.
	f.Add(uint8(0), uint8(2), uint8(0), []byte{2, 0, 0, 0, 8, 7, 6, 0, 0, 3, 7, 0, 6, 0, 0, 3, 8, 0, 6, 0, 0})
	// Error paths: self link, unknown node, duplicate link, absent link,
	// recovering a live node, crashing twice, removing the destination.
	f.Add(uint8(2), uint8(0), uint8(1), []byte{0, 1, 1, 0, 8, 0, 0, 0, 1, 1, 0, 7, 5, 0, 0, 4, 1, 0, 4, 1, 0, 5, 1, 0, 3, 0, 0, 6, 0, 0})
	const maxOps, maxAdded = 48, 4
	f.Fuzz(func(t *testing.T, rows, cols, shards uint8, script []byte) {
		topo := workload.Grid(2+int(rows)%3, 2+int(cols)%3)
		net, err := NewDynamicNetworkWith(topo, DynOptions{Shards: 1 + int(shards)%3, Adversary: testAdversary(t)})
		if err != nil {
			t.Fatal(err)
		}
		defer net.Stop()
		m := newChurnModel(topo)
		// pick maps a byte to a node ID, one past the last node included so
		// the unknown-node path is reachable.
		pick := func(x byte) graph.NodeID { return graph.NodeID(int(x) % (m.n + 1)) }
		type held struct{ snap, clone *Snapshot }
		var published []held
		last := net.ReadSnapshot()
		published = append(published, held{last, snapClone(last)})
		changed := false
		await := func(step int) {
			label := fmt.Sprintf("await at op %d", step)
			err := net.AwaitQuiescence()
			if want := m.cut(); len(want) == 0 {
				if err != nil {
					t.Fatalf("%s: %v, model has no cut", label, err)
				}
			} else {
				var pe *PartitionError
				if !errors.As(err, &pe) {
					t.Fatalf("%s: %v, want a partition naming %v", label, err, want)
				}
				if !slices.Equal(pe.Cut, want) {
					t.Fatalf("%s: cut %v, model %v", label, pe.Cut, want)
				}
			}
			s := net.ReadSnapshot()
			switch {
			case s.Epoch < last.Epoch:
				t.Fatalf("%s: epoch went back %d -> %d", label, last.Epoch, s.Epoch)
			case s.Epoch == last.Epoch && s != last:
				t.Fatalf("%s: two snapshots share epoch %d", label, s.Epoch)
			case changed && s.Epoch == last.Epoch:
				t.Fatalf("%s: topology changed but epoch stayed %d", label, s.Epoch)
			}
			if s != last {
				published = append(published, held{s, snapClone(s)})
				last = s
			}
			changed = false
			requireModelLinks(t, m, s, label+" published")
			requireModelLinks(t, m, net.Snapshot(), label+" direct")
			for _, h := range published {
				requireSnapEqual(t, h.clone, h.snap, fmt.Sprintf("%s: epoch %d", label, h.snap.Epoch))
			}
			if err == nil && !slices.Contains(m.crashed, true) {
				for u := 0; u < m.n; u++ {
					if m.dead[u] {
						continue
					}
					if _, ok := s.RouteFrom(graph.NodeID(u), m.dest, m.n); !ok {
						t.Fatalf("%s: no route %d -> %d in epoch %d", label, u, m.dest, s.Epoch)
					}
				}
			}
		}
		added := 0
		for i := 0; i+2 < len(script) && i/3 < maxOps; i += 3 {
			op, a, b := int(script[i])%churnOpcodes, script[i+1], script[i+2]
			var got, want error
			switch op {
			case churnAddLink:
				u, v := pick(a), pick(b)
				want = m.linkErr(u, v, false)
				got = net.AddLink(u, v)
				if want == nil {
					m.links[graph.NormalizedEdge(u, v)] = struct{}{}
				}
			case churnFailLink:
				// An even b fails one of u's links, so failures mostly hit.
				u, v := pick(a), pick(b/2)
				if nbrs := m.nbrs(u); b%2 == 0 && m.valid(u) && len(nbrs) > 0 {
					v = nbrs[int(b/2)%len(nbrs)]
				}
				want = m.linkErr(u, v, true)
				got = net.FailLink(u, v)
				if want == nil {
					delete(m.links, graph.NormalizedEdge(u, v))
				}
			case churnAddNode:
				if added == maxAdded {
					continue
				}
				added++
				id, err := net.AddNode()
				if err != nil || int(id) != m.n {
					t.Fatalf("op %d: AddNode = %d, %v; want %d", i/3, id, err, m.n)
				}
				m.n++
				m.dead = append(m.dead, false)
				m.crashed = append(m.crashed, false)
			case churnRemoveNode:
				u := pick(a)
				switch {
				case !m.valid(u):
					want = ErrUnknownNode
				case u == m.dest:
					want = ErrSelfLink
				}
				got = net.RemoveNode(u)
				if want == nil {
					for _, v := range m.nbrs(u) {
						delete(m.links, graph.NormalizedEdge(u, v))
					}
					m.dead[u], m.crashed[u] = true, false
				}
			case churnCrash:
				u := pick(a)
				switch {
				case !m.valid(u):
					want = ErrUnknownNode
				case m.crashed[u]:
					want = ErrCrashed
				}
				got = net.Crash(u)
				if want == nil {
					m.crashed[u] = true
				}
			case churnRecover:
				u := pick(a)
				switch {
				case !m.valid(u):
					want = ErrUnknownNode
				case !m.crashed[u]:
					want = ErrNotCrashed
				}
				got = net.Recover(u)
				if want == nil {
					m.crashed[u] = false
				}
			default:
				await(i / 3)
				continue
			}
			if !errors.Is(got, want) {
				t.Fatalf("op %d (code %d, %d, %d): error %v, model expects %v", i/3, op, a, b, got, want)
			}
			if got == nil && op != churnCrash && op != churnRecover {
				changed = true
			}
		}
		await(len(script) / 3)
	})
}
