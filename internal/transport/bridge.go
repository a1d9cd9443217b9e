package transport

import (
	"sync"
	"sync/atomic"

	"dagger/internal/fabric"
	"dagger/internal/metrics"
	"dagger/internal/wire"
)

// batchCap bounds the frames one datagram carries: with Reliable's largest
// header (maxAcks piggybacked acks) in front, the datagram still fits
// maxDatagram, and so does a batch of one wire.MaxFrameSize frame.
const batchCap = maxDatagram - (hdrFixed + 8*maxAcks)

// maxQueued bounds the batches waiting for the TX goroutine, about a
// loopback socket's send buffer of full datagrams. Beyond it forward fails
// with fabric.ErrRingFull, like a full ring, instead of blocking the sender.
const maxQueued = 16

// txBatch is one datagram being filled: whole Dagger frames back to back
// toward one peer. Frames delimit themselves (header Len, whole cache
// lines), so a batch needs no framing bytes of its own.
type txBatch struct {
	endpoint string
	frames   []byte
}

// Bridge connects a local fabric to remote peers over a PacketConn: it
// installs itself as the fabric's gateway for non-local destinations and
// injects inbound frames into the fabric with the usual NIC-side steering.
// One Bridge per host; the route table is the cross-host extension of the
// ToR model's static switching table.
//
// Forwarding is a doorbell, as in the paper's CPU-NIC interface: a frame is
// copied into its peer's pending batch and the bridge's TX goroutine is
// kicked. That goroutine sends every pending batch as one datagram, so a
// batch holds whatever queued while the previous send was in the kernel:
// one frame at low load, many under load.
type Bridge struct {
	fab    *fabric.Fabric
	conn   PacketConn
	routes *RouteTable
	closed atomic.Bool

	mu    sync.Mutex
	queue []txBatch // batches awaiting the TX goroutine, oldest first
	free  [][]byte  // emptied batch buffers, reused by new batches
	kick  chan struct{} // capacity 1: a kick while one is pending merges into it
	stop  chan struct{}
	txWG  sync.WaitGroup

	Forwarded metrics.Counter
	// Datagrams counts the datagrams the TX goroutine sent; Forwarded /
	// Datagrams is the mean batch size in frames.
	Datagrams   metrics.Counter
	SendErr     metrics.Counter // datagrams the conn refused; their frames are lost
	TxFull      metrics.Counter // frames refused because maxQueued batches were waiting
	Injected    metrics.Counter
	InjectErr   metrics.Counter
	NoPeer      metrics.Counter
	DeadLetters metrics.Counter
}

// DescribeMetrics registers the bridge's forwarding counters into reg.
func (b *Bridge) DescribeMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("bridge.forwarded", &b.Forwarded)
	reg.RegisterCounter("bridge.datagrams", &b.Datagrams)
	reg.RegisterCounter("bridge.senderr", &b.SendErr)
	reg.RegisterCounter("bridge.txfull", &b.TxFull)
	reg.RegisterCounter("bridge.injected", &b.Injected)
	reg.RegisterCounter("bridge.injecterr", &b.InjectErr)
	reg.RegisterCounter("bridge.nopeer", &b.NoPeer)
	reg.RegisterCounter("bridge.deadletters", &b.DeadLetters)
}

// NewBridge attaches a bridge to fab over conn using routes and starts its
// TX goroutine; Close stops it. The bridge takes ownership of the conn's
// receive handler. A Reliable conn additionally gets the bridge's
// dead-letter hook: requests the protocol abandons come back to the local
// fabric as synthetic FlagDead responses, so the waiting client fails fast
// with ErrPeerDead instead of burning its full timeout.
func NewBridge(fab *fabric.Fabric, conn PacketConn, routes *RouteTable) *Bridge {
	b := &Bridge{
		fab: fab, conn: conn, routes: routes,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
	conn.SetHandler(b.onFrame)
	if rl, ok := conn.(*Reliable); ok {
		rl.SetDeadLetter(b.onDeadLetter)
	}
	b.txWG.Add(1)
	go b.txLoop()
	fab.SetGateway(b.forward)
	return b
}

// onDeadLetter receives batches the reliable protocol gave up delivering.
// For each abandoned request in the batch it synthesizes a dead-peer
// response toward the caller; abandoned responses are dropped (the remote
// caller's own transport is responsible for its side's liveness).
func (b *Bridge) onDeadLetter(_ string, pkt []byte) {
	for len(pkt) > 0 && !b.closed.Load() {
		n, err := wire.FrameSize(pkt)
		if err != nil {
			return
		}
		b.deadLetter(pkt[:n])
		pkt = pkt[n:]
	}
}

func (b *Bridge) deadLetter(frame []byte) {
	h, err := wire.ParseHeader(frame)
	if err != nil || h.Kind != wire.KindRequest {
		return
	}
	b.DeadLetters.Add(1)
	m := &wire.Message{Header: wire.Header{
		Kind: wire.KindResponse, Flags: wire.FlagDead,
		ConnID: h.ConnID, RPCID: h.RPCID, FlowID: h.FlowID, FnID: h.FnID,
		SrcAddr: h.DstAddr, DstAddr: h.SrcAddr,
	}}
	buf := b.fab.Buffers().Get(wire.CacheLineSize)
	out, err := wire.MarshalAppend(buf[:0], m)
	if err != nil {
		b.fab.Buffers().Put(buf)
		return
	}
	if err := b.fab.Inject(out); err != nil {
		b.InjectErr.Add(1)
	}
}

// Endpoint returns the bridge's own transport endpoint (to put in peers'
// route tables).
func (b *Bridge) Endpoint() string { return b.conn.LocalEndpoint() }

// forward is the fabric gateway. The route is resolved here, so an
// unroutable frame fails synchronously with ErrNoPeer; the frame is copied
// into its peer's pending batch before forward returns.
func (b *Bridge) forward(dstAddr uint32, frame []byte) error {
	if b.closed.Load() {
		return ErrBridgeClose
	}
	ep, ok := b.routes.Resolve(dstAddr)
	if !ok {
		b.NoPeer.Add(1)
		return ErrNoPeer
	}
	b.mu.Lock()
	i := b.batchFor(ep, len(frame))
	if i < 0 {
		b.mu.Unlock()
		b.TxFull.Add(1)
		return fabric.ErrRingFull
	}
	b.queue[i].frames = append(b.queue[i].frames, frame...)
	b.mu.Unlock()
	b.Forwarded.Add(1)
	select {
	case b.kick <- struct{}{}:
	default: // a kick is already pending; the TX goroutine will see this frame
	}
	return nil
}

// batchFor returns the index of the queued batch that takes n more bytes
// toward ep: ep's newest batch if it has room, else a new one, or -1 when
// maxQueued batches are already waiting. Appending only to ep's newest
// batch keeps each peer's frames in order.
//
// dagger:requires-lock mu
func (b *Bridge) batchFor(ep string, n int) int {
	for i := len(b.queue) - 1; i >= 0; i-- {
		if b.queue[i].endpoint == ep {
			if len(b.queue[i].frames)+n <= batchCap {
				return i
			}
			break
		}
	}
	if len(b.queue) == maxQueued {
		return -1
	}
	var buf []byte
	if k := len(b.free); k > 0 {
		buf, b.free = b.free[k-1], b.free[:k-1]
	}
	b.queue = append(b.queue, txBatch{endpoint: ep, frames: buf})
	return len(b.queue) - 1
}

// txLoop sends the queued batches, one datagram each, every time it is
// kicked. It swaps the queue out under the lock and sends outside it, so
// forward never waits on the kernel.
func (b *Bridge) txLoop() {
	defer b.txWG.Done()
	var out []txBatch
	for {
		select {
		case <-b.stop:
			return
		case <-b.kick:
		}
		b.mu.Lock()
		for i := range out {
			b.free = append(b.free, out[i].frames[:0])
			out[i] = txBatch{}
		}
		out, b.queue = b.queue, out[:0]
		b.mu.Unlock()
		for _, bt := range out {
			if err := b.conn.Send(bt.endpoint, bt.frames); err != nil {
				b.SendErr.Add(1)
				continue
			}
			b.Datagrams.Add(1)
		}
	}
}

// onFrame splits an inbound datagram into its frames and injects each one.
// The datagram is peer-controlled: frame lengths come from header Len
// fields and are bounds-checked, and a length that cannot be right drops
// the rest of the datagram (counted in InjectErr), since nothing after it
// can be delimited. Fabric.Inject verifies each frame.
func (b *Bridge) onFrame(pkt []byte, _ string) {
	for len(pkt) > 0 && !b.closed.Load() {
		n, err := wire.FrameSize(pkt)
		if err != nil {
			b.InjectErr.Add(1)
			return
		}
		// pkt is borrowed from the conn, but Inject takes ownership of its
		// argument — so copy into a pooled frame buffer first.
		frame := b.fab.Buffers().Get(n)
		copy(frame, pkt[:n])
		pkt = pkt[n:]
		if err := b.fab.Inject(frame); err != nil {
			b.InjectErr.Add(1)
			continue
		}
		b.Injected.Add(1)
	}
}

// Close detaches the bridge, stops its TX goroutine and closes its conn.
// Frames still queued are dropped, as a lossy link would drop them.
func (b *Bridge) Close() error {
	if b.closed.Swap(true) {
		return nil
	}
	b.fab.SetGateway(nil)
	close(b.stop)
	err := b.conn.Close()
	b.txWG.Wait()
	return err
}
