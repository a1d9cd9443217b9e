package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dagger/internal/core"
	"dagger/internal/fabric"
	"dagger/internal/kvs/mica"
	"dagger/internal/metrics"
	"dagger/internal/ringbuf"
	"dagger/internal/transport"
)

// Fabric addresses and the benchmark's functions.
const (
	clientAddr uint32 = 1
	serverAddr uint32 = 100
	fnEcho     uint16 = 7
	fnReply    uint16 = 8
)

// errBadRequest is the reply handler's answer to a malformed request.
var errBadRequest = errors.New("malformed request")

// callTimeout bounds a synchronous call; asyncDeadline is the benchmark's
// own per-request deadline for asynchronous calls, which core does not
// enforce (a response lost at a full ring would otherwise hold a window
// slot forever).
const (
	callTimeout   = time.Second
	asyncDeadline = time.Second
)

// builder builds one instance of a workload's system under test on inputs
// made beforehand; set-up time is the time it takes.
type builder func(tr *tracer) (*stack, error)

// stack is one built instance of a workload's system under test.
type stack struct {
	callers []caller
	tr      *tracer
	// regs are every component's metrics registry by prefix; counters are
	// read only through their snapshots.
	regs map[string]*metrics.Registry
	// loanSlack is how many pool loans may stay unrepaid after drain: the
	// buffers a client API keeps by design rather than through a leak.
	loanSlack func(metrics.Snapshot) uint64
	closers   []func()
}

func newStack(tr *tracer) *stack {
	return &stack{tr: tr, regs: map[string]*metrics.Registry{}}
}

// register adds a component registry under prefix.
func (s *stack) register(prefix string, reg *metrics.Registry) { s.regs[prefix] = reg }

// registerPool describes a buffer pool's loan counters under prefix.
func (s *stack) registerPool(prefix string, p *ringbuf.BufPool) {
	reg := metrics.New()
	p.DescribeMetrics(reg)
	s.register(prefix, reg)
}

// registerNIC registers a NIC's registry and every flow's buffer pool.
func (s *stack) registerNIC(prefix string, nic *fabric.SoftNIC) error {
	s.register(prefix, nic.Metrics())
	for i := 0; i < nic.NumFlows(); i++ {
		fl, err := nic.Flow(i)
		if err != nil {
			return err
		}
		s.registerPool(fmt.Sprintf("pool.%s.flow%d", prefix, i), fl.Buffers())
	}
	return nil
}

// snapshot merges every registry into one namespace.
func (s *stack) snapshot() metrics.Snapshot {
	snaps := make([]metrics.Snapshot, 0, len(s.regs))
	for p, r := range s.regs {
		snaps = append(snaps, r.Snapshot().WithPrefix(p))
	}
	return metrics.Merge(snaps...)
}

// close tears the stack down in reverse build order.
func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// sumSuffix adds the values of every sample whose name ends in "."+suffix.
func sumSuffix(snap metrics.Snapshot, suffix string) uint64 {
	var n int64
	for _, sm := range snap.Samples {
		if strings.HasSuffix(sm.Name, "."+suffix) {
			n += sm.Value
		}
	}
	return uint64(n)
}

// checkLoans verifies that the stack's buffer pools balance after drain:
// every loan repaid, except for the slack a client API keeps by design.
func (s *stack) checkLoans() error {
	snap := s.snapshot()
	gets, puts := sumSuffix(snap, "pool.gets"), sumSuffix(snap, "pool.puts")
	var slack uint64
	if s.loanSlack != nil {
		slack = s.loanSlack(snap)
	}
	if puts > gets || gets-puts > slack {
		return fmt.Errorf("buffer pool loans unbalanced after drain: gets=%d puts=%d (allowed unrepaid %d)", gets, puts, slack)
	}
	return nil
}

// tracer holds the handler timestamps of traced requests, indexed by a hash
// of the request id, so callers can assemble a span once their call
// completes.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	stamps []handlerStamp
}

// handlerStamp is one request's handler entry and exit. The handler stores
// id before the times, so a reader that sees the same id before and after
// reading them has read that request's times.
type handlerStamp struct {
	id      atomic.Uint64
	in, out atomic.Int64
}

// tracerSlots is the size of the handler stamp table (a power of two; more
// than the requests in flight at once).
const tracerSlots = 1 << 12

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), stamps: make([]handlerStamp, tracerSlots)}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) slot(id uint64) *handlerStamp { return &t.stamps[splitmix64(id)&(tracerSlots-1)] }

// handler wraps one of the benchmark's own handlers: while tracing is on, it
// stamps handler entry and exit for the request id the payload carries.
func (t *tracer) handler(f func(req []byte) ([]byte, error)) core.Handler {
	return func(_ context.Context, req []byte) ([]byte, error) {
		if !t.on.Load() {
			return f(req)
		}
		in := time.Now()
		resp, err := f(req)
		out := time.Now()
		if id, ok := echoID(req); ok {
			st := t.slot(id)
			st.id.Store(id)
			st.in.Store(t.since(in))
			st.out.Store(t.since(out))
		}
		return resp, err
	}
}

// handlerSpan fills s's handler fields from the stamp table. It returns
// false, and the span should be dropped, when another request whose id
// hashes to the same slot has overwritten s's stamps.
func (t *tracer) handlerSpan(s *span) bool {
	st := t.slot(s.ID)
	if st.id.Load() != s.ID {
		return false
	}
	s.HandlerIn, s.HandlerOut = st.in.Load(), st.out.Load()
	return st.id.Load() == s.ID
}

func echo(req []byte) ([]byte, error) { return req, nil }

// replier returns the udp-mix handler: it answers each request with the
// response it asks for (see fillRequest).
func replier(pattern []byte) func([]byte) ([]byte, error) {
	return func(req []byte) ([]byte, error) {
		resp, ok := reply(pattern, req)
		if !ok {
			return nil, errBadRequest
		}
		return resp, nil
	}
}

// appServer builds a server NIC with nflows flows on fab, serving the
// benchmark's own handler h as function fn.
func appServer(s *stack, fab *fabric.Fabric, nflows int, fn uint16, h func([]byte) ([]byte, error)) error {
	nic, err := fab.CreateNIC(serverAddr, nflows, 0)
	if err != nil {
		return err
	}
	if err := s.registerNIC("nic.server", nic); err != nil {
		return err
	}
	srv := core.NewRpcThreadedServer(nic, core.ServerConfig{})
	if err := srv.Register(fn, "bench.app", s.tr.handler(h)); err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	s.register("server", srv.Metrics())
	s.closers = append(s.closers, srv.Stop)
	return nil
}

// clientPool builds a client NIC with n flows on fab and one connected
// client per flow.
func clientPool(s *stack, fab *fabric.Fabric, n int) (*core.RpcClientPool, error) {
	nic, err := fab.CreateNIC(clientAddr, n, 0)
	if err != nil {
		return nil, err
	}
	if err := s.registerNIC("nic.client", nic); err != nil {
		return nil, err
	}
	pool, err := core.NewRpcClientPool(nic, n)
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, pool.Close)
	if _, err := pool.ConnectAll(serverAddr); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		c := pool.Client(i)
		c.SetTimeout(callTimeout)
		s.register(fmt.Sprintf("client.%d", i), c.Metrics())
	}
	return pool, nil
}

// echoPayload is the echo-lockstep request size.
const echoPayload = 64

// prepareEchoLockstep: one in-process fabric, one caller with one
// synchronous call in flight, 64 B echoes handled on the dispatch thread.
func prepareEchoLockstep(seed int64) builder {
	pattern := newPattern(seed)
	return func(tr *tracer) (*stack, error) { return buildEchoLockstep(pattern, tr) }
}

func buildEchoLockstep(pattern []byte, tr *tracer) (*stack, error) {
	s := newStack(tr)
	fab := fabric.NewFabric()
	s.registerPool("pool.fabric", fab.Buffers())
	if err := appServer(s, fab, 1, fnEcho, echo); err != nil {
		s.close()
		return nil, err
	}
	pool, err := clientPool(s, fab, 1)
	if err != nil {
		s.close()
		return nil, err
	}
	s.callers = []caller{&echoCaller{
		cli: pool.Client(0), tr: tr, pattern: pattern, buf: make([]byte, echoPayload),
		idBase: 1 << 56,
	}}
	return s, nil
}

// echoCaller issues synchronous echo calls one at a time.
type echoCaller struct {
	cli     *core.RpcClient
	tr      *tracer
	pattern []byte
	buf     []byte
	idBase  uint64
	seq     uint64
}

func (c *echoCaller) run(rec *recorder, stop *atomic.Bool) {
	traced := rec.spans != nil
	for !stop.Load() {
		c.seq++
		id := c.idBase | c.seq
		fillEcho(c.buf, c.pattern, id)
		rec.attempted.Add(1)
		t0 := time.Now()
		resp, err := c.cli.Call(fnEcho, c.buf)
		t1 := time.Now()
		ok := err == nil && checkEcho(c.buf, resp)
		if err == nil && !ok {
			rec.wrong.Add(1)
		}
		c.cli.Release(resp)
		rec.done(t0, t1, ok)
		if traced && ok {
			sp := span{ID: id, Call: c.tr.since(t0), Done: c.tr.since(t1)}
			if c.tr.handlerSpan(&sp) {
				rec.addSpan(sp)
			}
		}
	}
}

// MICA store sizing for kv-mica: one partition per server flow, and enough
// index buckets that the prepopulated keyspace never overflows an 8-way
// bucket. Each partition's log holds about 20 s of SETs at 200K RPCs/s;
// once a log wraps, MICA's cache mode ages out cold records, and a GET miss
// in that partition counts as a miss rather than a failure (see kvLog).
const (
	kvFlows      = 2
	kvBuckets    = 1 << 17
	kvLogBytes   = 64 << 20
	kvRecordLen  = 4 + 16 + 32 // MICA log record: length header, key, value
	kvOpsPerCall = 1 << 20     // generated operations per caller, replayed cyclically
)

// prepareKVMica: in-process mica.Serve with object-level steering over two
// flows/partitions, two callers using mica.Client synchronously, over a
// prepopulated keyspace. The callers' operation streams are made once; each
// build prepopulates a fresh store.
func prepareKVMica(seed int64) builder {
	ops := make([][]kvOp, kvFlows)
	for i := range ops {
		ops[i] = kvOpSeq(callerSeed(seed, i), kvOpsPerCall)
	}
	return func(tr *tracer) (*stack, error) { return buildKVMica(ops, tr) }
}

func buildKVMica(ops [][]kvOp, tr *tracer) (*stack, error) {
	s := newStack(tr)
	store := mica.NewStore(kvFlows, kvBuckets, kvLogBytes)
	log := &kvLog{appended: make([]atomic.Uint64, kvFlows)}
	var key, val [32]byte
	for rec := uint64(0); rec < kvRecords; rec++ {
		k := kvKey(key[:], rec)
		if err := store.Set(k, kvValue(val[:], rec, kvVersion(0, 0))); err != nil {
			return nil, fmt.Errorf("prepopulate record %d: %w", rec, err)
		}
		log.appended[mica.PartitionFor(k, kvFlows)].Add(kvRecordLen)
	}
	fab := fabric.NewFabric()
	s.registerPool("pool.fabric", fab.Buffers())
	nic, err := fab.CreateNIC(serverAddr, kvFlows, 0)
	if err != nil {
		return nil, err
	}
	if err := s.registerNIC("nic.server", nic); err != nil {
		return nil, err
	}
	srv, err := mica.Serve(nic, store, core.ServerConfig{})
	if err != nil {
		return nil, err
	}
	s.register("server", srv.Metrics())
	s.closers = append(s.closers, srv.Stop)
	pool, err := clientPool(s, fab, kvFlows)
	if err != nil {
		s.close()
		return nil, err
	}
	// mica.Client keeps each response buffer it decodes instead of
	// releasing it, so up to one loan per completed call stays unrepaid.
	s.loanSlack = func(snap metrics.Snapshot) uint64 { return sumSuffix(snap, "call.completed") }
	vers := &kvVersions{issued: make([]atomic.Uint64, kvFlows+1)}
	for i := 0; i < kvFlows; i++ {
		s.callers = append(s.callers, &kvCaller{
			mc: mica.NewClient(pool.Client(i)), tr: tr, writer: i + 1, vers: vers, log: log,
			ops: ops[i],
		})
	}
	return s, nil
}

// kvLog tracks the bytes SETs have appended to each partition's log. Until
// a partition has taken more than kvLogBytes, none of its records can have
// aged out, so a GET miss there is a failure.
type kvLog struct{ appended []atomic.Uint64 }

func (l *kvLog) set(key []byte) { l.appended[mica.PartitionFor(key, kvFlows)].Add(kvRecordLen) }

func (l *kvLog) wrapped(key []byte) bool {
	return l.appended[mica.PartitionFor(key, kvFlows)].Load() > kvLogBytes
}

// kvVersions tracks each writer's highest issued version sequence, so a GET
// can be checked against versions that were actually written.
type kvVersions struct{ issued []atomic.Uint64 }

func (v *kvVersions) get(w int) uint64 { return v.issued[w].Load() }

// kvCaller replays its operation sequence with synchronous mica.Client
// calls and validates every GET.
type kvCaller struct {
	mc     *mica.Client
	tr     *tracer
	writer int
	vers   *kvVersions
	log    *kvLog
	ops    []kvOp
	next   int
	key    [32]byte
	val    [32]byte
}

func (c *kvCaller) run(rec *recorder, stop *atomic.Bool) {
	traced := rec.spans != nil
	for !stop.Load() {
		op := c.ops[c.next%len(c.ops)]
		c.next++
		key := kvKey(c.key[:], op.rec())
		rec.attempted.Add(1)
		var err error
		var t0, t1 time.Time
		if op.set() {
			seq := c.vers.issued[c.writer].Add(1)
			val := kvValue(c.val[:], op.rec(), kvVersion(c.writer, seq))
			c.log.set(key)
			t0 = time.Now()
			err = c.mc.Set(key, val)
			t1 = time.Now()
		} else {
			var got []byte
			t0 = time.Now()
			got, err = c.mc.Get(key)
			t1 = time.Now()
			switch {
			case errors.Is(err, mica.ErrNotFound) && c.log.wrapped(key):
				// The record aged out of a wrapped log: a cache miss.
				rec.misses.Add(1)
				err = nil
			case err == nil:
				if cerr := checkKVValue(got, op.rec(), len(c.vers.issued)-1, c.vers.get); cerr != nil {
					rec.wrong.Add(1)
					err = cerr
				}
			}
		}
		rec.done(t0, t1, err == nil)
		if traced && err == nil {
			rec.addSpan(span{ID: uint64(c.next), Call: c.tr.since(t0), Done: c.tr.since(t1)})
		}
	}
}

// udp-mix window: asynchronous calls each caller keeps outstanding.
const udpWindow = 8

// udpSizes is the length of each udp-mix caller's size sequence, replayed
// cyclically.
const udpSizes = 1 << 15

// prepareUDPMix: two fabrics in one process joined over loopback UDP by
// transport.Bridge on transport.Reliable; two callers each keep udpWindow
// asynchronous calls outstanding, with request and response sizes drawn
// from the Fig. 4 model (see sizeSeq).
func prepareUDPMix(seed int64) builder {
	pattern := newPattern(seed)
	sizes := make([][]rpcSize, 2)
	for i := range sizes {
		sizes[i] = sizeSeq(callerSeed(seed, i), udpSizes)
	}
	return func(tr *tracer) (*stack, error) { return buildUDPMix(pattern, sizes, tr) }
}

func buildUDPMix(pattern []byte, sizes [][]rpcSize, tr *tracer) (*stack, error) {
	s := newStack(tr)
	conns := make([]*transport.UDPConn, 2)
	for i := range conns {
		c, err := transport.NewUDPConn("127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		conns[i] = c
		s.closers = append(s.closers, func() { _ = c.Close() })
	}
	cfab, sfab := fabric.NewFabric(), fabric.NewFabric()
	s.registerPool("pool.fabric.client", cfab.Buffers())
	s.registerPool("pool.fabric.server", sfab.Buffers())
	side := func(name string, fab *fabric.Fabric, conn *transport.UDPConn, peerAddr uint32, peer string) {
		rel := transport.NewReliable(conn, transport.ReliableOptions{})
		br := transport.NewBridge(fab, rel, transport.NewRouteTable(transport.Route{Lo: peerAddr, Hi: peerAddr, Endpoint: peer}))
		for prefix, describe := range map[string]func(*metrics.Registry){
			"udp": conn.DescribeMetrics, "reliable": rel.DescribeMetrics, "bridge": br.DescribeMetrics,
		} {
			reg := metrics.New()
			describe(reg)
			s.register(prefix+"."+name, reg)
		}
		s.closers = append(s.closers, func() { _ = br.Close() })
	}
	side("client", cfab, conns[0], serverAddr, conns[1].LocalEndpoint())
	side("server", sfab, conns[1], clientAddr, conns[0].LocalEndpoint())
	if err := appServer(s, sfab, 2, fnReply, replier(pattern)); err != nil {
		s.close()
		return nil, err
	}
	pool, err := clientPool(s, cfab, 2)
	if err != nil {
		s.close()
		return nil, err
	}
	for i, sz := range sizes {
		s.callers = append(s.callers, newAsyncCaller(pool.Client(i), tr, pattern, sz, uint64(i+1)<<56))
	}
	return s, nil
}

// asyncCaller keeps udpWindow CallAsync calls outstanding. Each call's
// callback names its window slot and the slot's generation at issue, so a
// completion is matched to its request without allocating per call. A
// request that outlives asyncDeadline expires and its slot is reissued; a
// late response or error for it finds a newer generation and is ignored.
type asyncCaller struct {
	cli     *core.RpcClient
	tr      *tracer
	pattern []byte
	sizes   []rpcSize
	idBase  uint64
	seq     uint64

	mu    sync.Mutex
	rec   *recorder
	slots [udpWindow]asyncSlot
	spare []*asyncCall // callbacks with no call outstanding
	free  chan int     // slot indices ready to issue; capacity udpWindow
}

type asyncSlot struct {
	gen    uint64 // advanced on every issue
	live   bool
	id     uint64
	rsp    int // response size the request asks for
	t0     time.Time
	issued time.Time
	buf    []byte
}

// asyncCall is the callback of one issued call. It returns to the spare
// list only when its own completion arrives, so it never has more than one
// call outstanding; a call that expired and never completes keeps its
// callback out of use.
type asyncCall struct {
	a    *asyncCaller
	slot int
	gen  uint64
	cb   func([]byte, error)
}

func newAsyncCaller(cli *core.RpcClient, tr *tracer, pattern []byte, sizes []rpcSize, idBase uint64) *asyncCaller {
	a := &asyncCaller{cli: cli, tr: tr, pattern: pattern, sizes: sizes, idBase: idBase, free: make(chan int, udpWindow)}
	for i := range a.slots {
		a.slots[i].buf = make([]byte, maxPayload)
	}
	for i := 0; i < 2*udpWindow; i++ {
		a.spare = append(a.spare, a.newCall())
	}
	return a
}

func (a *asyncCaller) newCall() *asyncCall {
	c := &asyncCall{a: a}
	c.cb = c.complete
	return c
}

func (c *asyncCall) complete(resp []byte, err error) {
	t1 := time.Now()
	a := c.a
	a.mu.Lock()
	i, gen := c.slot, c.gen
	a.spare = append(a.spare, c)
	sl := &a.slots[i]
	if !sl.live || sl.gen != gen {
		// Completion of a request that already expired: ignore it.
		a.mu.Unlock()
		a.cli.Release(resp)
		return
	}
	sl.live = false
	ok := err == nil && bytes.Equal(resp, replyFor(a.pattern, sl.id, sl.rsp))
	if err == nil && !ok {
		a.rec.wrong.Add(1)
	}
	a.rec.done(sl.t0, t1, ok)
	if a.rec.spans != nil && ok {
		sp := span{ID: sl.id, Call: a.tr.since(sl.t0), Issued: a.tr.since(sl.issued), Done: a.tr.since(t1)}
		if a.tr.handlerSpan(&sp) {
			a.rec.addSpan(sp)
		}
	}
	a.mu.Unlock()
	a.cli.Release(resp)
	a.free <- i
}

// issue sends the next request on slot i.
func (a *asyncCaller) issue(i int) {
	c, gen := a.begin(i)
	// The callback may run before CallAsync returns; the slot's buffer is
	// not written again until the slot is reissued, after its completion.
	err := a.cli.CallAsync(fnReply, a.slots[i].buf, c.cb)
	a.issued(i, gen, c, err, time.Now())
}

// begin fills slot i with the next request and returns the callback that
// completes it and the slot's new generation.
func (a *asyncCaller) begin(i int) (*asyncCall, uint64) {
	a.seq++
	id := a.idBase | a.seq
	sz := a.sizes[int(a.seq)%len(a.sizes)]
	a.mu.Lock()
	defer a.mu.Unlock()
	sl := &a.slots[i]
	sl.buf = sl.buf[:sz.req]
	fillRequest(sl.buf, a.pattern, id, sz.rsp)
	sl.gen++
	sl.live, sl.id, sl.rsp = true, id, sz.rsp
	var c *asyncCall
	if n := len(a.spare); n > 0 {
		c, a.spare = a.spare[n-1], a.spare[:n-1]
	} else {
		c = a.newCall()
	}
	c.slot, c.gen = i, sl.gen
	a.rec.attempted.Add(1)
	sl.t0 = time.Now()
	return c, sl.gen
}

// issued records CallAsync's outcome for slot i's request of generation gen.
func (a *asyncCaller) issued(i int, gen uint64, c *asyncCall, err error, at time.Time) {
	a.mu.Lock()
	sl := &a.slots[i]
	if sl.gen != gen || !sl.live {
		// Already completed (or expired).
		a.mu.Unlock()
		return
	}
	if err == nil {
		sl.issued = at
		a.mu.Unlock()
		return
	}
	// A call that fails to issue never completes: its callback is free again.
	sl.live = false
	a.spare = append(a.spare, c)
	a.rec.done(sl.t0, at, false)
	a.mu.Unlock()
	a.free <- i
}

// expire fails every live request older than asyncDeadline and frees its
// slot; it returns the number still live.
func (a *asyncCaller) expire(now time.Time) int {
	live := 0
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.slots {
		sl := &a.slots[i]
		if !sl.live {
			continue
		}
		if now.Sub(sl.t0) > asyncDeadline {
			sl.live = false
			a.rec.expired.Add(1)
			a.rec.failed.Add(1)
			a.free <- i
			continue
		}
		live++
	}
	return live
}

func (a *asyncCaller) run(rec *recorder, stop *atomic.Bool) {
	a.mu.Lock()
	a.rec = rec
	a.mu.Unlock()
	for i := range a.slots {
		a.free <- i
	}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for !stop.Load() {
		select {
		case i := <-a.free:
			a.issue(i)
		case now := <-tick.C:
			a.expire(now)
			// Completions also accumulate in the client's CompletionQueue;
			// the callbacks already consumed them.
			a.cli.CompletionQueue().Poll(0)
		}
	}
	// Drain: wait for every outstanding request to complete or expire.
	for a.expire(time.Now()) > 0 {
		select {
		case <-a.free:
		case <-tick.C:
		}
	}
	for len(a.free) > 0 {
		<-a.free
	}
	a.cli.CompletionQueue().Poll(0)
}
