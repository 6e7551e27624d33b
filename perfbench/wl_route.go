package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	lr "linkreversal"
)

// Seeded input streams; each workload draws from its own streams so the
// layers it times never share a source sequence.
const (
	streamSources = iota + 1
	streamProbes
	streamEdges
	streamDests
	streamOrder
	streamRepairs
)

func rng(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// shardedNetwork builds a DynamicNetwork configured as `lrd -engine
// sharded` configures one: sharded backend, Shards 0 (= GOMAXPROCS),
// block partition, lrd's default 25 ms publication cadence.
func shardedNetwork(topo *lr.Topology) (*lr.DynamicNetwork, error) {
	return lr.NewDynamicNetworkWith(topo, lr.DynNetOptions{
		Engine:       lr.DistSharded,
		Partition:    lr.DistPartitionBlock,
		PublishEvery: 25 * time.Millisecond,
	})
}

// checkPath verifies a route read off snap: it starts at src, ends at
// snap.Dest, every hop is a live link of the snapshot, and heights
// strictly descend along it.
func checkPath(snap *lr.NetworkSnapshot, src lr.NodeID, path []lr.NodeID) error {
	if len(path) == 0 || path[0] != src {
		return fmt.Errorf("route from %d does not start there: %v", src, head(path))
	}
	if last := path[len(path)-1]; last != snap.Dest {
		return fmt.Errorf("route from %d ends at %d, not the destination %d", src, last, snap.Dest)
	}
	for i := 1; i < len(path); i++ {
		u, v := path[i-1], path[i]
		if !hasLink(snap.Links(u), v) {
			return fmt.Errorf("route from %d: hop %d→%d is not a live link at epoch %d", src, u, v, snap.Epoch)
		}
		if !snap.Heights[v].Less(snap.Heights[u]) {
			return fmt.Errorf("route from %d: height does not descend on hop %d→%d", src, u, v)
		}
	}
	return nil
}

func hasLink(nbrs []lr.NodeID, v lr.NodeID) bool {
	for _, w := range nbrs {
		if w == v {
			return true
		}
	}
	return false
}

func head(p []lr.NodeID) []lr.NodeID { return p[:min(len(p), 4)] }

// route is route-100k: GET /route/{src} through RouteServer.ServeHTTP on
// a quiescent side×side grid held by the sharded DynamicNetwork.
type route struct {
	side int
	net  *lr.DynamicNetwork
	srv  *lr.RouteServer

	reqs  []*http.Request // one per source of the seeded source stream
	srcs  []lr.NodeID
	next  int
	slots []routeSlot

	body routeBody // the last response checked

	probeSrcs []lr.NodeID // a separate seeded stream for the walk probes
	probeNext int
	probeBuf  []lr.NodeID

	// counts over the first routeCounts probes / traced requests
	hops, probeNs      []int64
	handlerNs, reqHops []int64
	respBytes          []int64
}

type routeSlot struct {
	src lr.NodeID
	rec *httptest.ResponseRecorder
	dur int64 // handler span duration, traced ops only
	// The recorder's body buffer and header map are reused from op to
	// op, as a server reuses its connection buffers, so the benchmark's
	// recorder adds no garbage of its own to the heap the handler's
	// collector works on.
	body   *bytes.Buffer
	header http.Header
}

// fresh readies the slot's recorder for the next op.
func (s *routeSlot) fresh() {
	s.body.Reset()
	clear(s.header)
	s.rec = &httptest.ResponseRecorder{HeaderMap: s.header, Body: s.body, Code: http.StatusOK}
}

// routePool is how many requests the seeded source stream holds; ops
// cycle through it. The pool is built in set-up, so no request is
// constructed on the timed path.
const routePool = 8192

// routeCounts is how many probes and traced requests a traced run takes
// its count metrics from, so counts come from the same prefix of the
// seeded streams in every run of a seed.
const routeCounts = 4096

func newRoute(side int) *route { return &route{side: side} }

func (r *route) shape() (block, warmup, tail int) { return 512, 2048, 990 }

func (r *route) setup(seed int64, tr *tracer, parent int32) error {
	sp := tr.begin("setup.topo", parent)
	topo := lr.Grid(r.side, r.side)
	n := r.side * r.side
	src := rng(seed, streamSources)
	r.reqs = make([]*http.Request, routePool)
	r.srcs = make([]lr.NodeID, routePool)
	for i := range r.reqs {
		r.srcs[i] = lr.NodeID(src.IntN(n))
		r.reqs[i] = httptest.NewRequest(http.MethodGet, "/route/"+strconv.Itoa(int(r.srcs[i])), nil)
	}
	pr := rng(seed, streamProbes)
	r.probeSrcs = make([]lr.NodeID, routePool)
	for i := range r.probeSrcs {
		r.probeSrcs[i] = lr.NodeID(pr.IntN(n))
	}
	r.probeBuf = make([]lr.NodeID, 0, 4*r.side)
	block, _, _ := r.shape()
	r.slots = make([]routeSlot, block)
	for i := range r.slots {
		r.slots[i].body = bytes.NewBuffer(make([]byte, 0, 8<<10))
		r.slots[i].header = make(http.Header)
		r.slots[i].fresh()
	}
	tr.end(sp)

	sp = tr.begin("setup.network", parent)
	defer tr.end(sp)
	net, err := shardedNetwork(topo)
	if err != nil {
		return err
	}
	r.net = net
	if err := net.AwaitQuiescence(); err != nil {
		return fmt.Errorf("initial stabilization: %w", err)
	}
	r.srv = lr.NewRouteServer(net, lr.ServeConfig{Topology: topo.Name, Engine: "sharded", Partition: "block"})
	return nil
}

func (r *route) op(k int, tr *tracer, parent int32) {
	i := r.next % routePool
	r.next++
	s := &r.slots[k]
	sp := tr.begin("serve.handler", parent)
	r.srv.ServeHTTP(s.rec, r.reqs[i])
	tr.end(sp)
	s.src, s.dur = r.srcs[i], 0
	if sp >= 0 {
		s.dur = tr.spans[sp].end - tr.spans[sp].start
	}
}

// routeBody is the GET /route/{src} response.
type routeBody struct {
	Epoch uint64      `json:"epoch"`
	Src   lr.NodeID   `json:"src"`
	Dst   lr.NodeID   `json:"dst"`
	Hops  int         `json:"hops"`
	Path  []lr.NodeID `json:"path"`
}

func (r *route) check(k int) error {
	s := &r.slots[k]
	// The next op into this slot gets a fresh recorder, made here so
	// that no recorder is built on the timed path.
	defer s.fresh()
	if s.rec.Code != http.StatusOK {
		return fmt.Errorf("GET /route/%d: status %d: %s", s.src, s.rec.Code, s.rec.Body.String())
	}
	size := s.rec.Body.Len()
	body := &r.body
	*body = routeBody{Path: body.Path[:0]} // reuse the decoded path's array
	if err := json.Unmarshal(s.rec.Body.Bytes(), body); err != nil {
		return fmt.Errorf("GET /route/%d: %v", s.src, err)
	}
	snap := r.net.ReadSnapshot()
	if body.Epoch != snap.Epoch || body.Src != s.src || body.Hops != len(body.Path)-1 {
		return fmt.Errorf("GET /route/%d: inconsistent body (epoch %d of %d, src %d, hops %d, path len %d)",
			s.src, body.Epoch, snap.Epoch, body.Src, body.Hops, len(body.Path))
	}
	if err := checkPath(snap, s.src, body.Path); err != nil {
		return err
	}
	if s.dur > 0 && len(r.handlerNs) < routeCounts {
		r.handlerNs = append(r.handlerNs, s.dur)
		r.reqHops = append(r.reqHops, int64(body.Hops))
		r.respBytes = append(r.respBytes, int64(size))
	}
	return nil
}

// probe times Snapshot.RouteInto alone on the probe stream.
func (r *route) probe(tr *tracer) (bool, error) {
	src := r.probeSrcs[r.probeNext%routePool]
	r.probeNext++
	sp := tr.begin("walk.route", -1)
	snap := r.net.ReadSnapshot()
	path, ok := snap.RouteInto(src, snap.Dest, snap.NumNodes(), r.probeBuf)
	tr.end(sp)
	if !ok {
		return true, fmt.Errorf("RouteInto from %d found no route at epoch %d", src, snap.Epoch)
	}
	r.probeBuf = path[:0]
	if err := checkPath(snap, src, path); err != nil {
		return true, err
	}
	if len(r.hops) < routeCounts && sp >= 0 {
		r.hops = append(r.hops, int64(len(path)-1))
		r.probeNs = append(r.probeNs, tr.spans[sp].end-tr.spans[sp].start)
	}
	return true, nil
}

func (r *route) counted() bool {
	return len(r.hops) == routeCounts && len(r.handlerNs) == routeCounts
}

func (r *route) layer(m map[string]float64, allocs, _ float64) {
	m["serve.allocs"] = allocs
	m["walk.hops"] = mean(r.hops)
	nsPerHop := perHop(r.probeNs, r.hops)
	m["walk.ns_per_hop"] = nsPerHop
	// The handler's walk cannot be timed from outside it, so its self
	// time is each request's duration less the walk its path length
	// predicts at the probes' ns/hop.
	self := make([]float64, len(r.handlerNs))
	for i, d := range r.handlerNs {
		self[i] = float64(d) - nsPerHop*float64(r.reqHops[i])
	}
	m["serve.self_us"] = medianFloat(self) / 1e3
	m["serve.resp_bytes"] = mean(r.respBytes)
}

func (r *route) close() {
	if r.net != nil {
		r.net.Stop()
	}
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s int64
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// perHop is the median over samples of duration/hops.
func perHop(ns, hops []int64) float64 {
	var xs []float64
	for i := range ns {
		if hops[i] > 0 {
			xs = append(xs, float64(ns[i])/float64(hops[i]))
		}
	}
	return medianFloat(xs)
}
