package transport

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"dagger/internal/metrics"
	"dagger/internal/retry"
)

// Reliable layers the paper's missing Protocol unit over a lossy
// PacketConn: per-peer sequence numbers, selective per-packet
// acknowledgements piggybacked on reverse traffic, timer-driven
// retransmission, duplicate suppression at the receiver, and an AIMD
// congestion window (the "RPC-optimized ...
// congestion control" §4.5 leaves for future work: additive increase per
// acknowledged packet, multiplicative decrease on retransmission; packets
// beyond the window queue at the sender). It itself implements PacketConn,
// so a Bridge can run over either the raw datagram path (the paper's
// pass-through Protocol unit) or the reliable one.
type Reliable struct {
	inner      PacketConn
	rto        time.Duration
	maxRetries int
	initWnd    float64
	maxWnd     float64
	backoff    retry.Policy

	mu         sync.Mutex
	peers      map[string]*peer
	handler    func([]byte, string)
	deadLetter func(endpoint string, pkt []byte)
	stop       chan struct{}
	stopOnce   sync.Once
	wg         sync.WaitGroup

	// Counters. metrics.Counter is a drop-in for the atomic.Uint64 these
	// grew up as.
	Retransmits metrics.Counter
	Duplicates  metrics.Counter
	GaveUp      metrics.Counter
	DeadLetters metrics.Counter
}

// DescribeMetrics registers the protocol's reliability counters into reg.
func (r *Reliable) DescribeMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("reliable.retransmits", &r.Retransmits)
	reg.RegisterCounter("reliable.duplicates", &r.Duplicates)
	reg.RegisterCounter("reliable.gaveup", &r.GaveUp)
	reg.RegisterCounter("reliable.deadletter", &r.DeadLetters)
}

type pendingPkt struct {
	seq      uint64
	payload  []byte // the caller's datagram; headers are built per transmission
	deadline time.Time
	tries    int
}

// peer is the protocol state toward one endpoint: the send side (sequence
// numbers, unacknowledged packets, congestion window) and the receive side
// (duplicate suppression and the acks owed to the peer).
type peer struct {
	nextSeq uint64
	unacked map[uint64]*pendingPkt
	// AIMD congestion window, in packets.
	cwnd    float64
	waiting []*pendingPkt // packets queued behind the window

	maxSeen uint64 // highest sequence delivered
	seen    map[uint64]bool
	anySeen bool
	// acks are the data sequences received from the peer and not yet
	// acknowledged; they ride on the next datagram sent to it.
	acks []uint64
}

// rxWindow bounds the duplicate-suppression memory per peer.
const rxWindow = 8192

// Datagram layout, integers little-endian:
//
//	[type|ackNow:1][seq:8][n:1][n × acked seq:8][payload]
//
// A data packet carries the acks its sender owes the receiver; a pure ack
// (pktAck, seq 0) carries acks and no payload. ackNow asks the receiver to
// acknowledge at once instead of waiting for reverse traffic.
const (
	pktData byte = 1
	pktAck  byte = 2

	flagAckNow byte = 0x80
	hdrFixed        = 10
	// maxAcks caps the acks one datagram carries; a receiver holding this
	// many sends a pure ack at once.
	maxAcks = 64
)

// dgramPool recycles the buffers datagrams are built in: each is framed,
// handed to the inner conn and returned within one transmission. A buffer
// too small for the next datagram is replaced by one sized to it.
var dgramPool sync.Pool // of *[]byte

// outDgram is a framed datagram built under the lock, sent after it.
type outDgram struct {
	endpoint string
	buf      *[]byte
}

// ReliableOptions tunes the protocol.
type ReliableOptions struct {
	// RTO is the retransmission timeout (default 20ms).
	RTO time.Duration
	// MaxRetries bounds retransmissions before giving up (default 10).
	MaxRetries int
	// InitialWindow is the starting congestion window in packets
	// (default 32). The window grows by one packet per window of acks and
	// halves on retransmission, floored at 1.
	InitialWindow float64
	// MaxWindow caps the congestion window (default 1024).
	MaxWindow float64
	// Backoff schedules retransmission delays per attempt (exponential
	// from RTO with deterministic seeded jitter by default). Base == 0
	// selects the default derived from RTO.
	Backoff retry.Policy
}

// NewReliable wraps inner with the reliability protocol.
func NewReliable(inner PacketConn, opts ReliableOptions) *Reliable {
	if opts.RTO <= 0 {
		opts.RTO = 20 * time.Millisecond
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 10
	}
	if opts.InitialWindow <= 0 {
		opts.InitialWindow = 32
	}
	if opts.MaxWindow <= 0 {
		opts.MaxWindow = 1024
	}
	if opts.Backoff.Base <= 0 {
		// Exponential backoff from RTO: successive retransmissions of the
		// same packet wait longer, so a congested path is not hammered at a
		// fixed cadence. Jitter decorrelates peers that lost packets in the
		// same burst; the fixed seed keeps schedules reproducible.
		opts.Backoff = retry.Policy{
			Base:       opts.RTO,
			Max:        8 * opts.RTO,
			Multiplier: 2,
			Jitter:     0.1,
			Seed:       0xDA66,
		}
	}
	r := &Reliable{
		inner:      inner,
		rto:        opts.RTO,
		maxRetries: opts.MaxRetries,
		initWnd:    opts.InitialWindow,
		maxWnd:     opts.MaxWindow,
		backoff:    opts.Backoff,
		peers:      make(map[string]*peer),
		stop:       make(chan struct{}),
	}
	inner.SetHandler(r.onPacket)
	r.wg.Add(1)
	go r.retransmitLoop()
	return r
}

// Send transmits a datagram with at-least-once delivery (exactly-once to
// the handler, thanks to receiver-side dedup). Packets beyond the
// congestion window queue at the sender and drain as acks arrive.
func (r *Reliable) Send(endpoint string, pkt []byte) error {
	r.mu.Lock()
	p := r.peer(endpoint)
	p.nextSeq++
	pp := &pendingPkt{seq: p.nextSeq, payload: append([]byte(nil), pkt...)}
	if float64(len(p.unacked)) >= p.cwnd {
		p.waiting = append(p.waiting, pp)
		r.mu.Unlock()
		return nil
	}
	d := r.admit(p, pp, time.Now())
	r.mu.Unlock()
	return r.transmit(endpoint, d)
}

// peer returns (creating if needed) the protocol state toward endpoint.
//
// dagger:requires-lock mu
func (r *Reliable) peer(endpoint string) *peer {
	p := r.peers[endpoint]
	if p == nil {
		p = &peer{
			unacked: make(map[uint64]*pendingPkt),
			cwnd:    r.initWnd,
			seen:    make(map[uint64]bool),
		}
		r.peers[endpoint] = p
	}
	return p
}

// admit puts pp into p's window and frames its first transmission. The
// packet asks for an immediate ack when it fills the window or others queue
// behind it: the sender cannot progress until acks come back, so they must
// not wait for reverse traffic.
//
// dagger:requires-lock mu
func (r *Reliable) admit(p *peer, pp *pendingPkt, now time.Time) *[]byte {
	pp.deadline = now.Add(r.rto)
	p.unacked[pp.seq] = pp
	ackNow := float64(len(p.unacked)) >= p.cwnd || len(p.waiting) > 0
	return r.frame(p, pktData, pp.seq, ackNow, pp.payload)
}

// frame builds one datagram toward p in a pooled buffer, taking up to
// maxAcks of the acks owed to p.
//
// dagger:requires-lock mu
func (r *Reliable) frame(p *peer, typ byte, seq uint64, ackNow bool, payload []byte) *[]byte {
	n := min(len(p.acks), maxAcks)
	size := hdrFixed + 8*n + len(payload)
	bp, _ := dgramPool.Get().(*[]byte)
	if bp == nil || cap(*bp) < size {
		b := make([]byte, size)
		bp = &b
	}
	b := (*bp)[:size]
	if ackNow {
		typ |= flagAckNow
	}
	b[0] = typ
	binary.LittleEndian.PutUint64(b[1:], seq)
	b[9] = byte(n)
	for i, a := range p.acks[:n] {
		binary.LittleEndian.PutUint64(b[hdrFixed+8*i:], a)
	}
	copy(b[hdrFixed+8*n:], payload)
	p.acks = append(p.acks[:0], p.acks[n:]...)
	*bp = b
	return bp
}

// transmit sends a framed datagram and recycles its buffer.
func (r *Reliable) transmit(endpoint string, bp *[]byte) error {
	err := r.inner.Send(endpoint, *bp)
	dgramPool.Put(bp)
	return err
}

// drainWindow releases queued packets into a freshly opened window,
// appending their datagrams to out for sending outside the lock.
//
// dagger:requires-lock mu
func (r *Reliable) drainWindow(endpoint string, p *peer, out []outDgram) []outDgram {
	if len(p.waiting) == 0 {
		return out
	}
	now := time.Now()
	for len(p.waiting) > 0 && float64(len(p.unacked)) < p.cwnd {
		pp := p.waiting[0]
		p.waiting[0] = nil
		p.waiting = p.waiting[1:]
		out = append(out, outDgram{endpoint, r.admit(p, pp, now)})
	}
	return out
}

// SetDeadLetter installs a callback invoked (outside the protocol lock, from
// the retransmission goroutine) for every packet the protocol abandons after
// MaxRetries retransmissions. pkt is the original datagram payload as passed
// to Send — the framing header is stripped. Without a dead-letter hook an
// abandoned packet vanishes silently and the caller's RPC hangs until its own
// timeout; with one, the caller can fail the RPC fast (the Bridge turns dead
// requests into synthetic FlagDead responses so clients see ErrPeerDead).
func (r *Reliable) SetDeadLetter(fn func(endpoint string, pkt []byte)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deadLetter = fn
}

// SetHandler installs the deduplicated receive callback.
func (r *Reliable) SetHandler(h func([]byte, string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handler = h
}

// LocalEndpoint returns the inner conn's endpoint.
func (r *Reliable) LocalEndpoint() string { return r.inner.LocalEndpoint() }

// Close stops retransmission and the inner conn.
func (r *Reliable) Close() error {
	r.stopOnce.Do(func() { close(r.stop) })
	err := r.inner.Close()
	r.wg.Wait()
	return err
}

// Unacked returns the number of packets awaiting acknowledgement.
func (r *Reliable) Unacked() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, p := range r.peers {
		n += len(p.unacked)
	}
	return n
}

// Queued returns the number of packets waiting behind congestion windows.
func (r *Reliable) Queued() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, p := range r.peers {
		n += len(p.waiting)
	}
	return n
}

// Window returns the current congestion window (in packets) toward a peer,
// or the initial window if no session exists yet.
func (r *Reliable) Window(endpoint string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.peers[endpoint]; p != nil {
		return p.cwnd
	}
	return r.initWnd
}

func (r *Reliable) onPacket(pkt []byte, from string) {
	if len(pkt) < hdrFixed {
		return
	}
	typ := pkt[0] &^ flagAckNow
	seq := binary.LittleEndian.Uint64(pkt[1:9])
	n := int(pkt[9])
	body := hdrFixed + 8*n
	if (typ != pktData && typ != pktAck) || len(pkt) < body {
		return
	}
	r.mu.Lock()
	p := r.peers[from]
	if p == nil && typ == pktAck {
		r.mu.Unlock() // acks for a peer never sent to acknowledge nothing
		return
	}
	p = r.peer(from)
	for i := 0; i < n; i++ {
		acked := binary.LittleEndian.Uint64(pkt[hdrFixed+8*i:])
		if _, ok := p.unacked[acked]; ok {
			delete(p.unacked, acked)
			// Additive increase: one packet per window of acks.
			p.cwnd = min(p.cwnd+1/p.cwnd, r.maxWnd)
		}
	}
	deliver, flush := false, false
	if typ == pktData {
		// Every data packet is (re-)acknowledged, duplicates too: the
		// earlier ack may have been lost.
		p.acks = append(p.acks, seq)
		dup := p.seenBefore(seq)
		if dup {
			r.Duplicates.Add(1)
		}
		deliver = !dup
		flush = pkt[0]&flagAckNow != 0 || dup || len(p.acks) >= maxAcks
	}
	var outBuf [4]outDgram
	out := r.drainWindow(from, p, outBuf[:0])
	if flush && len(p.acks) > 0 {
		out = append(out, outDgram{from, r.frame(p, pktAck, 0, false, nil)})
	}
	h := r.handler
	r.mu.Unlock()
	for _, d := range out {
		_ = r.transmit(d.endpoint, d.buf)
	}
	if deliver && h != nil {
		h(pkt[body:], from)
	}
}

// seenBefore records seq as delivered and reports whether it already was
// (or is too old to tell, which counts as a duplicate).
func (p *peer) seenBefore(seq uint64) bool {
	if p.seen[seq] || (p.anySeen && seq+rxWindow <= p.maxSeen) {
		return true
	}
	p.seen[seq] = true
	if seq > p.maxSeen || !p.anySeen {
		p.maxSeen = seq
		p.anySeen = true
	}
	// Trim the window.
	if len(p.seen) > 2*rxWindow {
		for old := range p.seen {
			if old+rxWindow <= p.maxSeen {
				delete(p.seen, old)
			}
		}
	}
	return false
}

// retransmitLoop ticks every RTO/4: it retransmits overdue packets (each
// asking for an immediate ack), abandons those out of retries, and flushes
// acks no reverse traffic carried since the last tick — so a held ack waits
// at most a quarter of the RTO.
func (r *Reliable) retransmitLoop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.rto / 4)
	defer tick.Stop()
	type deadPkt struct {
		endpoint string
		pkt      []byte
	}
	// Reused across ticks so the steady-state retransmit scan is
	// allocation-free.
	due := make([]outDgram, 0, 64)
	dead := make([]deadPkt, 0, 16)
	for {
		select {
		case <-r.stop:
			return
		case now := <-tick.C:
			due = due[:0]
			dead = dead[:0]
			r.mu.Lock()
			onDead := r.deadLetter
			for ep, p := range r.peers {
				retransmitted := false
				for seq, pp := range p.unacked {
					if now.Before(pp.deadline) {
						continue
					}
					pp.tries++
					if pp.tries > r.maxRetries {
						delete(p.unacked, seq)
						r.GaveUp.Add(1)
						if onDead != nil {
							dead = append(dead, deadPkt{ep, pp.payload})
						}
						continue
					}
					// Exponential backoff per attempt: the next deadline
					// stretches with each retransmission of this packet.
					retransmitted = true
					pp.deadline = now.Add(r.backoff.Backoff(pp.tries))
					r.Retransmits.Add(1)
					due = append(due, outDgram{ep, r.frame(p, pktData, seq, true, pp.payload)})
				}
				if retransmitted {
					// Multiplicative decrease on loss — but only when a live
					// packet was actually retransmitted. A tick that only
					// abandons packets (give-up storm after a peer death)
					// says nothing new about path congestion, and halving per
					// tick would collapse the window to 1 before the peer's
					// replacement ever saw traffic.
					p.cwnd = max(p.cwnd/2, 1)
				}
				due = r.drainWindow(ep, p, due)
				for len(p.acks) > 0 {
					due = append(due, outDgram{ep, r.frame(p, pktAck, 0, false, nil)})
				}
			}
			r.mu.Unlock()
			for _, d := range due {
				_ = r.transmit(d.endpoint, d.buf)
			}
			for _, d := range dead {
				r.DeadLetters.Add(1)
				onDead(d.endpoint, d.pkt)
			}
		}
	}
}

var _ PacketConn = (*Reliable)(nil)

// String describes the protocol configuration.
func (r *Reliable) String() string {
	return fmt.Sprintf("reliable(rto=%v retries=%d)", r.rto, r.maxRetries)
}
