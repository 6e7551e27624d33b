package dist

import (
	"linkreversal/internal/faults"
	"linkreversal/internal/graph"
	"linkreversal/internal/obs"
)

// dynShard is DynamicNetwork's view of one runtime worker: the dynEnv its
// nodes run on.
type dynShard struct {
	*worker[dynMsg]
	net *DynamicNetwork
	// initial holds the construction-time states owned by this shard; begin
	// starts them and drops the list.
	initial []*dynState
}

// startShards builds the shard runtime over the construction-time states
// and launches it. The partitioner grows its locality regions over the
// initial adjacency rows; links added later do not re-partition —
// assignments are fixed at construction.
func (d *DynamicNetwork) startShards(states []*dynState) {
	part := newPartitioner(d.opts.Partition, len(states), d.opts.Shards,
		func(u graph.NodeID) []graph.NodeID { return d.adj[u] })
	d.states.Store(&states)
	d.rt = newShardRuntime[dynMsg](d, part, d.opts.MailboxCap, d.opts.Observer, d.stop, &d.wg)
	d.shards = make([]*dynShard, len(d.rt.workers))
	for i, w := range d.rt.workers {
		d.shards[i] = &dynShard{worker: w, net: d}
	}
	for _, st := range states {
		s := d.shards[part.shardOf(st.id)]
		s.initial = append(s.initial, st)
	}
	d.rt.start()
}

// attach publishes a node added at runtime and injects its start message,
// whose token the caller took. states is copy-on-write so AddNode never
// blocks the shards; they reach the new entry only via messages that
// causally follow the publication.
func (d *DynamicNetwork) attach(st *dynState) {
	old := *d.states.Load()
	states := make([]*dynState, len(old)+1)
	copy(states, old)
	states[st.id] = st
	d.states.Store(&states)
	d.rt.inject(st.id, dynMsg{Kind: dynStart, To: st.id})
}

// begin, process, add and retire make DynamicNetwork the dynamic plane's
// shardHost.
func (d *DynamicNetwork) begin(i int) {
	s := d.shards[i]
	for _, st := range s.initial {
		st.handle(s, dynMsg{Kind: dynStart, To: st.id})
	}
	s.initial = nil
}

func (d *DynamicNetwork) process(i int, m dynMsg) {
	(*d.states.Load())[m.To].handle(d.shards[i], m)
}

func (d *DynamicNetwork) add() {
	d.mu.Lock()
	d.inflight++
	d.mu.Unlock()
}

// retire wakes AwaitQuiescence waiters when the network drains.
func (d *DynamicNetwork) retire() {
	d.mu.Lock()
	d.inflight--
	if d.inflight == 0 {
		d.cond.Broadcast()
	}
	d.mu.Unlock()
}

// transmit sends m on behalf of st, routing height announcements through
// the fault injector: a dropped transmission is retransmitted immediately
// (the fair-loss bound terminates the loop — this is the ack/retransmit
// protocol with zero-latency loss notifications), and duplicate copies and
// holdbacks ride in the message under the token the shard holds. Control
// traffic bypasses the adversary: the control plane's view of the topology
// must stay authoritative.
func (s *dynShard) transmit(st *dynState, m dynMsg) {
	d := s.net
	if d.inj == nil || m.Kind != dynHeight {
		s.route(m.To, m)
		return
	}
	st.seq++
	link := faults.Link{From: st.id, To: m.To}
	for attempt := 0; ; attempt++ {
		f := d.inj.Judge(link, faults.Msg{Seq: st.seq, Attempt: attempt})
		if f.Drop {
			d.retrans.Add(1)
			s.obs.Retransmit(st.id, m.To, int64(st.seq))
			continue
		}
		m.Hold = uint8(f.Hold)
		for c := 0; c <= f.Extra; c++ {
			s.route(m.To, m)
		}
		return
	}
}

func (s *dynShard) requeue(_ *dynState, m dynMsg) { s.worker.requeue(m) }

func (s *dynShard) sink() *obs.Shard { return s.obs }
