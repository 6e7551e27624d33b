package dist

import (
	"sync"
	"sync/atomic"
	"time"

	"linkreversal/internal/graph"
	"linkreversal/internal/obs"
)

// batch is a reusable buffer of cross-shard messages. Batches circulate
// through the runtime's pool: a sender takes one when it first writes to an
// outbox, and the receiving shard hands it back after processing, so the
// steady state allocates nothing per flush — the backing arrays are
// recycled at whatever capacity the traffic grew them to.
type batch[M any] struct {
	msgs []M
}

// drainStopCheck is how many local deliveries a shard processes between
// polls of the stop channel. It bounds cancellation latency during long
// intra-shard cascades without paying a select per message.
const drainStopCheck = 256

// shardHost is the plane-specific half of a shard runtime: the protocol its
// workers run and the in-flight token counter that detects quiescence.
//
// Both planes keep one token rule. There is one start token per shard and
// one token per batch in the transport; a worker retires the token it holds
// — its start token, or the token of the batch it received — only after its
// local cascade has run dry and its outboxes are flushed, and every flushed
// batch takes its own token before it is sent. Intra-shard messages,
// duplicate copies and holdback requeues therefore ride under the token the
// worker already holds, and the count reaches zero only when no batch is in
// transit and no worker is processing: global quiescence.
type shardHost[M any] interface {
	// begin runs the initial acts of the nodes shard i owns.
	begin(i int)
	// process delivers one message to its node on shard i.
	process(i int, m M)
	// add takes the token of a batch about to enter the transport.
	add()
	// retire returns the token a shard held and signals quiescence when
	// none remain.
	retire()
}

// shardRuntime is the execution engine of both planes: it runs a host's
// nodes on a fixed set of shard goroutines. Each shard owns its nodes'
// protocol state outright, so intra-shard messages are delivered through a
// plain slice run-queue with no channel or lock on the path; only
// cross-shard traffic touches the transport, and it travels in
// per-destination batches drawn from a shared pool. Goroutine count is
// 2·shards (one loop plus one mailbox pump each), independent of the node
// count.
type shardRuntime[M any] struct {
	host    shardHost[M]
	part    partitioner
	workers []*worker[M]
	// pool recycles flushed batch buffers: senders take, receivers return.
	pool sync.Pool
	stop <-chan struct{}
	wg   *sync.WaitGroup
	// batches and remote are the transport counters: flushed batches and
	// cross-shard transmissions. Workers accumulate remote locally and fold
	// it in at flush time, so it costs no per-message atomic.
	batches, remote atomic.Int64
}

// newShardRuntime builds one worker per shard of part. The workers exit
// when stop is closed; wg counts their goroutines.
func newShardRuntime[M any](host shardHost[M], part partitioner, mailboxCap int, o *obs.Observer, stop <-chan struct{}, wg *sync.WaitGroup) *shardRuntime[M] {
	rt := &shardRuntime[M]{host: host, part: part, workers: make([]*worker[M], part.shards), stop: stop, wg: wg}
	rt.pool.New = func() any { return new(batch[M]) }
	for i := range rt.workers {
		rt.workers[i] = &worker[M]{
			rt:  rt,
			id:  i,
			out: make([]*batch[M], part.shards),
			tx:  make(chan *batch[M], mailboxCap),
			rx:  make(chan *batch[M]),
			obs: o.Shard(i), // nil when no observer is armed
		}
	}
	return rt
}

// start launches every worker's loop and mailbox pump.
func (rt *shardRuntime[M]) start() {
	for _, w := range rt.workers {
		rt.wg.Add(2)
		go func() {
			defer rt.wg.Done()
			mailbox(w.tx, w.rx, rt.stop)
		}()
		go w.loop()
	}
}

// inject hands m, addressed to node to, to its shard as a one-message
// batch. The caller has taken the batch's token.
func (rt *shardRuntime[M]) inject(to graph.NodeID, m M) {
	b := rt.getBatch()
	b.msgs = append(b.msgs, m)
	select {
	case rt.workers[rt.part.shardOf(to)].tx <- b:
	case <-rt.stop:
	}
}

// getBatch takes an empty batch from the pool; recycle returns a processed
// one. The interface conversion is free (batches travel as pointers), so
// neither direction allocates in the steady state.
func (rt *shardRuntime[M]) getBatch() *batch[M] { return rt.pool.Get().(*batch[M]) }

func (rt *shardRuntime[M]) recycle(b *batch[M]) {
	b.msgs = b.msgs[:0]
	rt.pool.Put(b)
}

// stopped reports whether the runtime has been told to shut down, without
// blocking. Long local cascades poll it so cancellation stays prompt.
func (rt *shardRuntime[M]) stopped() bool {
	select {
	case <-rt.stop:
		return true
	default:
		return false
	}
}

// worker is one shard of the runtime. Its fields are owned by the shard
// goroutine.
type worker[M any] struct {
	rt *shardRuntime[M]
	id int
	// local is the run-queue of intra-shard deliveries, consumed in FIFO
	// order by drain. Its backing array is reused across drains.
	local []M
	// out[d] is the outbox of messages bound for shard d — a pooled batch,
	// taken lazily on first write and handed off whole at flush.
	out []*batch[M]
	// remotePending accumulates this flush window's cross-shard
	// transmission count; flush folds it into the shared atomic.
	remotePending int64
	// window counts the flush windows closed so far; a host that indexes
	// outbox entries compares it to know when its index went stale.
	window uint64
	// tx is the ingress channel of this shard's mailbox; rx the pump's
	// output.
	tx, rx chan *batch[M]
	// obs is this shard's telemetry sink, nil unless an observer is armed —
	// every hook below it is guarded by a nil check, so the disarmed hot
	// path costs one predictable branch.
	obs *obs.Shard
}

// route files m, addressed to node to, by destination shard: same shard →
// local run-queue, otherwise → the destination shard's outbox. No token is
// taken here: intra-shard messages are covered by the token the shard
// holds, and cross-shard batches take theirs at flush.
func (w *worker[M]) route(to graph.NodeID, m M) {
	if d := w.rt.part.shardOf(to); d != w.id {
		w.remotePending++
		b := w.outbox(d)
		b.msgs = append(b.msgs, m)
		return
	}
	w.local = append(w.local, m)
	if w.obs != nil {
		w.obs.RunQueue(len(w.local))
	}
}

// outbox returns the pending batch for shard d, taking one from the pool
// on the window's first write to d.
func (w *worker[M]) outbox(d int) *batch[M] {
	b := w.out[d]
	if b == nil {
		b = w.rt.getBatch()
		w.out[d] = b
	}
	return b
}

// requeue puts m at the back of the local run-queue: a loss notification
// or a holdback that everything currently queued overtakes.
func (w *worker[M]) requeue(m M) { w.local = append(w.local, m) }

// loop is the shard goroutine: run the initial acts of the owned nodes,
// then serve incoming batches until shutdown. The start token is retired
// after the initial cascade, each batch's token after that batch is fully
// processed — at which point the batch buffer goes back to the pool.
func (w *worker[M]) loop() {
	rt := w.rt
	defer rt.wg.Done()
	// With an observer armed, the worker's wall clock is split into busy
	// (processing) and idle (blocked on the mailbox) spans around each
	// select. One time.Now per batch, never per message.
	var mark time.Time
	if w.obs != nil {
		mark = time.Now()
	}
	rt.host.begin(w.id)
	if !w.drain() {
		return
	}
	for {
		if w.obs != nil {
			now := time.Now()
			w.obs.Busy(now.Sub(mark))
			mark = now
		}
		select {
		case <-rt.stop:
			return
		case b := <-w.rx:
			if w.obs != nil {
				now := time.Now()
				w.obs.Idle(now.Sub(mark))
				mark = now
				w.obs.Mailbox(len(w.tx) + 1) // the batch in hand plus ingress backlog
			}
			for _, m := range b.msgs {
				rt.host.process(w.id, m)
			}
			rt.recycle(b)
			if !w.drain() {
				return
			}
		}
	}
}

// drain runs the local queue to exhaustion — deliveries may enqueue
// further local messages, so the length is re-read every iteration —
// flushes the outboxes and retires the token the shard holds. It reports
// false if the runtime stopped, in which case the shard goroutine must
// exit immediately.
func (w *worker[M]) drain() bool {
	for i := 0; i < len(w.local); i++ {
		if i%drainStopCheck == 0 && w.rt.stopped() {
			return false
		}
		w.rt.host.process(w.id, w.local[i])
	}
	w.local = w.local[:0]
	if !w.flush() {
		return false
	}
	w.rt.host.retire()
	return true
}

// flush sends every non-empty outbox to its destination shard as a single
// batch, closing the flush window. The batch's in-flight token is added
// before the send — while this shard still holds its own — so the counter
// can never reach zero while a batch exists; the receiving shard retires it
// after fully processing the batch. The window's pending remote count folds
// into the shared atomic here — once per flush, never per message.
func (w *worker[M]) flush() bool {
	rt := w.rt
	w.window++
	if w.remotePending > 0 {
		rt.remote.Add(w.remotePending)
		w.obs.Remote(w.remotePending)
		w.remotePending = 0
	}
	for d, b := range w.out {
		if b == nil {
			continue
		}
		rt.host.add()
		rt.batches.Add(1)
		if w.obs != nil {
			w.obs.Batch(len(b.msgs))
		}
		select {
		case rt.workers[d].tx <- b:
		case <-rt.stop:
			return false
		}
		w.out[d] = nil // the receiving shard owns the batch now
	}
	return true
}
