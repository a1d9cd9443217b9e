package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagger/internal/core"
	"dagger/internal/fabric"
	"dagger/internal/kvs/mica"
	"dagger/internal/metrics"
	"dagger/internal/wire"
)

// ===== Route table =====

func TestRouteTable(t *testing.T) {
	rt := NewRouteTable(
		Route{Lo: 100, Hi: 199, Endpoint: "hostA"},
		Route{Lo: 200, Hi: 200, Endpoint: "hostB"},
	)
	if ep, ok := rt.Resolve(150); !ok || ep != "hostA" {
		t.Fatalf("resolve(150) = %q,%v", ep, ok)
	}
	if ep, ok := rt.Resolve(200); !ok || ep != "hostB" {
		t.Fatalf("resolve(200) = %q,%v", ep, ok)
	}
	if _, ok := rt.Resolve(50); ok {
		t.Fatal("unrouted address resolved")
	}
}

// TestRouteTableBinarySearch covers the sorted-interval lookup: unsorted
// insertion order, exact boundary addresses, gaps between ranges, and the
// extremes of the address space.
func TestRouteTableBinarySearch(t *testing.T) {
	rt := NewRouteTable(
		Route{Lo: 500, Hi: 599, Endpoint: "hostC"},
		Route{Lo: 100, Hi: 199, Endpoint: "hostA"},
		Route{Lo: 300, Hi: 300, Endpoint: "hostB"},
		Route{Lo: 0, Hi: 0, Endpoint: "zero"},
		Route{Lo: 1 << 31, Hi: ^uint32(0), Endpoint: "high"},
	)
	cases := []struct {
		addr uint32
		ep   string
		ok   bool
	}{
		{0, "zero", true},
		{1, "", false},
		{99, "", false},
		{100, "hostA", true},
		{199, "hostA", true},
		{200, "", false},
		{300, "hostB", true},
		{301, "", false},
		{499, "", false},
		{500, "hostC", true},
		{599, "hostC", true},
		{600, "", false},
		{1 << 31, "high", true},
		{^uint32(0), "high", true},
		{1<<31 - 1, "", false},
	}
	for _, c := range cases {
		if ep, ok := rt.Resolve(c.addr); ok != c.ok || ep != c.ep {
			t.Fatalf("Resolve(%d) = %q,%v; want %q,%v", c.addr, ep, ok, c.ep, c.ok)
		}
	}
	// Empty table.
	if _, ok := NewRouteTable().Resolve(42); ok {
		t.Fatal("empty table resolved an address")
	}
}

func TestRouteTableRejectsOverlap(t *testing.T) {
	overlaps := [][2]Route{
		{{Lo: 100, Hi: 199, Endpoint: "a"}, {Lo: 150, Hi: 250, Endpoint: "b"}},
		{{Lo: 100, Hi: 199, Endpoint: "a"}, {Lo: 50, Hi: 100, Endpoint: "b"}},
		{{Lo: 100, Hi: 199, Endpoint: "a"}, {Lo: 100, Hi: 199, Endpoint: "b"}},
		{{Lo: 100, Hi: 199, Endpoint: "a"}, {Lo: 120, Hi: 130, Endpoint: "b"}},
	}
	for i, pair := range overlaps {
		rt := NewRouteTable(pair[0])
		if err := rt.Add(pair[1]); !errors.Is(err, ErrRouteOverlap) {
			t.Errorf("case %d: Add(%v) = %v, want ErrRouteOverlap", i, pair[1], err)
		}
		if ep, ok := rt.Resolve(pair[1].Hi); ok && ep != pair[0].Endpoint {
			t.Errorf("case %d: rejected route was installed (resolves to %q)", i, ep)
		}
	}
}

func TestRouteTableRejectsInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inverted route accepted")
		}
	}()
	NewRouteTable(Route{Lo: 5, Hi: 1, Endpoint: "x"})
}

// ===== Lossy in-memory conn for protocol tests =====

// memNet is an in-memory datagram network with configurable loss.
type memNet struct {
	mu    sync.Mutex
	conns map[string]*memConn
	rng   *rand.Rand
	loss  float64
	sends atomic.Int64 // memConn.Send calls, lost datagrams included
}

func (n *memNet) setLoss(loss float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.loss = loss
}

func newMemNet(loss float64, seed int64) *memNet {
	return &memNet{conns: map[string]*memConn{}, rng: rand.New(rand.NewSource(seed)), loss: loss}
}

type memConn struct {
	net     *memNet
	name    string
	mu      sync.Mutex
	handler func([]byte, string)
	closed  bool
}

func (n *memNet) conn(name string) *memConn {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := &memConn{net: n, name: name}
	n.conns[name] = c
	return c
}

func (c *memConn) Send(endpoint string, pkt []byte) error {
	c.net.sends.Add(1)
	c.net.mu.Lock()
	dst := c.net.conns[endpoint]
	drop := c.net.rng.Float64() < c.net.loss
	c.net.mu.Unlock()
	if dst == nil {
		return fmt.Errorf("memnet: no conn %q", endpoint)
	}
	if drop {
		return nil // silently lost, like UDP
	}
	cp := make([]byte, len(pkt))
	copy(cp, pkt)
	go func() {
		dst.mu.Lock()
		h := dst.handler
		closed := dst.closed
		dst.mu.Unlock()
		if h != nil && !closed {
			h(cp, c.name)
		}
	}()
	return nil
}

func (c *memConn) SetHandler(h func([]byte, string)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handler = h
}

func (c *memConn) LocalEndpoint() string { return c.name }

func (c *memConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// ===== Reliability protocol =====

func TestReliableDeliversWithoutLoss(t *testing.T) {
	net := newMemNet(0, 1)
	a := NewReliable(net.conn("a"), ReliableOptions{RTO: 5 * time.Millisecond})
	defer a.Close()
	b := NewReliable(net.conn("b"), ReliableOptions{RTO: 5 * time.Millisecond})
	defer b.Close()

	got := make(chan []byte, 16)
	b.SetHandler(func(pkt []byte, from string) {
		if from != "a" {
			t.Errorf("from = %q", from)
		}
		got <- pkt
	})
	for i := 0; i < 5; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[byte]bool{}
	for i := 0; i < 5; i++ {
		select {
		case p := <-got:
			seen[p[0]] = true
		case <-time.After(2 * time.Second):
			t.Fatal("delivery timeout")
		}
	}
	if len(seen) != 5 {
		t.Fatalf("delivered %d distinct, want 5", len(seen))
	}
	deadline := time.Now().Add(time.Second)
	for a.Unacked() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.Unacked() != 0 {
		t.Fatalf("unacked = %d after acks", a.Unacked())
	}
}

func TestReliableSurvivesHeavyLoss(t *testing.T) {
	net := newMemNet(0.4, 2) // 40% datagram loss, both directions
	a := NewReliable(net.conn("a"), ReliableOptions{RTO: 3 * time.Millisecond, MaxRetries: 50})
	defer a.Close()
	b := NewReliable(net.conn("b"), ReliableOptions{RTO: 3 * time.Millisecond, MaxRetries: 50})
	defer b.Close()

	const n = 100
	var mu sync.Mutex
	delivered := map[byte]int{}
	b.SetHandler(func(pkt []byte, _ string) {
		mu.Lock()
		delivered[pkt[0]]++
		mu.Unlock()
	})
	for i := 0; i < n; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		count := len(delivered)
		mu.Unlock()
		if count == n {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != n {
		t.Fatalf("delivered %d of %d under loss", len(delivered), n)
	}
	// Exactly-once to the handler despite retransmission.
	for k, c := range delivered {
		if c != 1 {
			t.Fatalf("packet %d delivered %d times", k, c)
		}
	}
	if a.Retransmits.Load() == 0 {
		t.Error("no retransmits under 40% loss?")
	}
}

func TestReliableGivesUpEventually(t *testing.T) {
	net := newMemNet(1.0, 3) // total blackout
	a := NewReliable(net.conn("a"), ReliableOptions{RTO: 2 * time.Millisecond, MaxRetries: 3})
	defer a.Close()
	net.conn("b") // exists but unreachable
	if err := a.Send("b", []byte{1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for a.Unacked() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if a.Unacked() != 0 {
		t.Fatal("sender never gave up")
	}
	if a.GaveUp.Load() != 1 {
		t.Fatalf("gaveUp = %d", a.GaveUp.Load())
	}
}

// ===== Piggybacked acknowledgements =====

// noTick is an RTO long enough that no retransmit-loop tick (every RTO/4)
// fires during a test: every datagram counted is protocol traffic, not a
// timer's flush.
const noTick = 10 * time.Second

// TestAcksRideOnResponses: in N sequential request/response exchanges every
// ack travels on reverse traffic, so the exchange costs exactly 2N
// datagrams. The last response's ack is still held by the requester.
func TestAcksRideOnResponses(t *testing.T) {
	net := newMemNet(0, 10)
	a := NewReliable(net.conn("a"), ReliableOptions{RTO: noTick})
	defer a.Close()
	b := NewReliable(net.conn("b"), ReliableOptions{RTO: noTick})
	defer b.Close()
	b.SetHandler(func(pkt []byte, from string) {
		if err := b.Send(from, pkt); err != nil {
			t.Error(err)
		}
	})
	got := make(chan []byte, 1)
	a.SetHandler(func(pkt []byte, _ string) { got <- append([]byte(nil), pkt...) })

	const n = 40
	for i := 0; i < n; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		select {
		case p := <-got:
			if p[0] != byte(i) {
				t.Fatalf("exchange %d: response %v", i, p)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("exchange %d: no response", i)
		}
	}
	if got := net.sends.Load(); got != 2*n {
		t.Errorf("%d exchanges sent %d datagrams, want %d", n, got, 2*n)
	}
	if a.Unacked() != 0 || b.Unacked() != 1 {
		t.Errorf("unacked a=%d b=%d, want 0 and 1 (last response's ack held)", a.Unacked(), b.Unacked())
	}
}

// TestAckNowDrivesOneWayStream: a one-way stream has no reverse traffic to
// carry acks, and the tick never fires, so a window-limited sender
// progresses only because packets filling its window ask for an immediate
// ack.
func TestAckNowDrivesOneWayStream(t *testing.T) {
	net := newMemNet(0, 11)
	a := NewReliable(net.conn("a"), ReliableOptions{RTO: noTick, InitialWindow: 4, MaxWindow: 4})
	defer a.Close()
	b := NewReliable(net.conn("b"), ReliableOptions{RTO: noTick})
	defer b.Close()
	var delivered atomic.Int64
	b.SetHandler(func([]byte, string) { delivered.Add(1) })
	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for (delivered.Load() < n || a.Queued() > 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if delivered.Load() != n || a.Queued() != 0 {
		t.Fatalf("delivered %d of %d, %d still queued", delivered.Load(), n, a.Queued())
	}
	if r := a.Retransmits.Load(); r != 0 {
		t.Fatalf("retransmits = %d, want 0", r)
	}
}

// TestRetransmitIsAckedAtOnce: a retransmission asks for an immediate ack,
// so the receiver answers it straight away rather than at its next tick.
func TestRetransmitIsAckedAtOnce(t *testing.T) {
	net := newMemNet(1, 12) // the first transmission is lost
	a := NewReliable(net.conn("a"), ReliableOptions{RTO: 50 * time.Millisecond})
	defer a.Close()
	b := NewReliable(net.conn("b"), ReliableOptions{RTO: noTick})
	defer b.Close()
	b.SetHandler(func([]byte, string) {})
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	net.setLoss(0)
	deadline := time.Now().Add(time.Second) // well before b's first tick
	for a.Unacked() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.Unacked() != 0 {
		t.Fatal("retransmitted packet not acked before the receiver's tick")
	}
	if r := a.Retransmits.Load(); r != 1 {
		t.Errorf("retransmits = %d, want 1", r)
	}
	// Lost original, retransmission, immediate pure ack.
	if got := net.sends.Load(); got != 3 {
		t.Errorf("sent %d datagrams, want 3", got)
	}
}

// TestPureAckTriggers: with no reverse traffic and no tick, a receiver
// holds its acks until a duplicate arrives (the sender missed an ack) or
// maxAcks are owed; then one pure ack carries every ack owed.
func TestPureAckTriggers(t *testing.T) {
	net := newMemNet(0, 13)
	got := make(chan []byte, 1)
	net.conn("a").SetHandler(func(pkt []byte, _ string) { got <- pkt })
	b := NewReliable(net.conn("b"), ReliableOptions{RTO: noTick})
	defer b.Close()
	b.SetHandler(func([]byte, string) {})
	expect := func(what string, want []byte) {
		t.Helper()
		select {
		case p := <-got:
			if !bytes.Equal(p, want) {
				t.Fatalf("%s: pure ack % x, want % x", what, p, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: no pure ack", what)
		}
	}

	first := datagram(pktData, 1, nil, []byte("x"))
	b.onPacket(first, "a")
	if n := net.sends.Load(); n != 0 {
		t.Fatalf("first copy: %d datagrams sent, want the ack held", n)
	}
	b.onPacket(first, "a")
	expect("duplicate", datagram(pktAck, 0, []uint64{1, 1}, nil))

	acks := make([]uint64, maxAcks)
	for i := range acks {
		acks[i] = uint64(i + 2)
		b.onPacket(datagram(pktData, acks[i], nil, nil), "a")
	}
	expect("maxAcks owed", datagram(pktAck, 0, acks, nil))
	if n := net.sends.Load(); n != 2 {
		t.Fatalf("%d datagrams sent, want 2 pure acks", n)
	}
}

// ===== UDP conn =====

func TestUDPConnRoundTrip(t *testing.T) {
	a, err := NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	got := make(chan string, 1)
	b.SetHandler(func(pkt []byte, from string) { got <- string(pkt) })
	if err := a.Send(b.LocalEndpoint(), []byte("over-udp")); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "over-udp" {
			t.Fatalf("payload %q", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("udp delivery timeout")
	}
}

// TestUDPConnDatagramBound: the largest datagram a bridge can hand the
// reliable protocol (a full batch of whole lines) with maxAcks piggybacked
// acks in front crosses a real socket byte-exact, and Send refuses a
// datagram the receiver's buffer could not hold whole.
func TestUDPConnDatagramBound(t *testing.T) {
	a, err := NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := make(chan []byte, 1)
	b.SetHandler(func(pkt []byte, _ string) { got <- append([]byte(nil), pkt...) })

	batch := make([]byte, batchCap/wire.CacheLineSize*wire.CacheLineSize)
	for i := range batch {
		batch[i] = byte(i * 7)
	}
	acks := make([]uint64, maxAcks)
	for i := range acks {
		acks[i] = uint64(i) << 40
	}
	dg := datagram(pktData, 1, acks, batch)
	if err := a.Send(b.LocalEndpoint(), dg); err != nil {
		t.Fatalf("sending a %d-byte datagram: %v", len(dg), err)
	}
	select {
	case p := <-got:
		if !bytes.Equal(p, dg) {
			t.Fatalf("received %d bytes, want the %d sent", len(p), len(dg))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("udp delivery timeout")
	}
	if err := a.Send(b.LocalEndpoint(), make([]byte, maxDatagram+1)); !errors.Is(err, ErrDatagramTooLarge) {
		t.Fatalf("oversized datagram: err = %v, want ErrDatagramTooLarge", err)
	}
}

// TestUDPConnCanonicalEndpoints: endpoints are resolved to plain IPv4, so an
// IPv4 socket can send to a peer named by hostname, and a dual-stack socket
// names an IPv4 sender by the same ip:port that sender reports for itself.
func TestUDPConnCanonicalEndpoints(t *testing.T) {
	v4, err := NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer v4.Close()
	dual, err := NewUDPConn(":0")
	if err != nil {
		t.Fatal(err)
	}
	defer dual.Close()
	_, dualPort, err := net.SplitHostPort(dual.LocalEndpoint())
	if err != nil {
		t.Fatal(err)
	}
	from := make(chan string, 1)
	dual.SetHandler(func(_ []byte, f string) { from <- f })

	byName := net.JoinHostPort("localhost", dualPort)
	if err := v4.Send(byName, []byte("x")); err != nil {
		t.Fatalf("IPv4 socket sending to %s: %v", byName, err)
	}
	select {
	case f := <-from:
		if f != v4.LocalEndpoint() {
			t.Fatalf("from = %q, want %q", f, v4.LocalEndpoint())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("udp delivery timeout")
	}
	if ep, err := CanonicalEndpoint(byName); err != nil || ep != "127.0.0.1:"+dualPort {
		t.Fatalf("CanonicalEndpoint(%q) = %q, %v", byName, ep, err)
	}
}

// ===== Bridge: full RPC across two fabrics over real UDP =====

func twoHosts(t *testing.T) (cliFab, srvFab *fabric.Fabric, cleanup func()) {
	t.Helper()
	cliConn, err := NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvConn, err := NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return bridgedHosts(cliConn, srvConn, 10*time.Millisecond)
}

// bridgedHosts joins a client fabric (NICs 1..99) and a server fabric (NICs
// 100..199) through Reliable conns over cliConn and srvConn.
func bridgedHosts(cliConn, srvConn PacketConn, rto time.Duration) (cliFab, srvFab *fabric.Fabric, cleanup func()) {
	cliFab = fabric.NewFabric()
	srvFab = fabric.NewFabric()
	cliRel := NewReliable(cliConn, ReliableOptions{RTO: rto})
	srvRel := NewReliable(srvConn, ReliableOptions{RTO: rto})
	cliBridge := NewBridge(cliFab, cliRel, NewRouteTable(Route{Lo: 100, Hi: 199, Endpoint: srvConn.LocalEndpoint()}))
	srvBridge := NewBridge(srvFab, srvRel, NewRouteTable(Route{Lo: 1, Hi: 99, Endpoint: cliConn.LocalEndpoint()}))
	return cliFab, srvFab, func() {
		cliBridge.Close()
		srvBridge.Close()
	}
}

func TestBridgeRPCOverUDP(t *testing.T) {
	cliFab, srvFab, cleanup := twoHosts(t)
	defer cleanup()
	checkBridgedEcho(t, cliFab, srvFab, 20)
}

// TestBridgeRPCOverLossyLink is the chaos story's lossy-link gate: across a
// datagram link losing 1% of packets, the reliable protocol must recover
// every call byte-exactly.
func TestBridgeRPCOverLossyLink(t *testing.T) {
	net := newMemNet(0.01, 0xC4A05)
	cliFab, srvFab, cleanup := bridgedHosts(net.conn("cli"), net.conn("srv"), 5*time.Millisecond)
	defer cleanup()
	checkBridgedEcho(t, cliFab, srvFab, 100)
}

// checkBridgedEcho serves echo on server NIC 100 and requires every one of
// calls serial calls from client NIC 1 to come back byte-exactly.
func checkBridgedEcho(t *testing.T, cliFab, srvFab *fabric.Fabric, calls int) {
	t.Helper()
	snic, err := srvFab.CreateNIC(100, 2, 256)
	if err != nil {
		t.Fatal(err)
	}
	srv := core.NewRpcThreadedServer(snic, core.ServerConfig{})
	if err := srv.Register(0, "echo", func(_ context.Context, req []byte) ([]byte, error) {
		return append([]byte("echo:"), req...), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	cnic, err := cliFab.CreateNIC(1, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := core.NewRpcClient(cnic, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.OpenConnection(100); err != nil {
		t.Fatal(err)
	}
	cli.SetTimeout(10 * time.Second) // recovery, not the timeout, must complete each call
	for i := 0; i < calls; i++ {
		msg := []byte(fmt.Sprintf("m%d", i))
		resp, err := cli.Call(0, msg)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(resp, append([]byte("echo:"), msg...)) {
			t.Fatalf("call %d: resp %q", i, resp)
		}
	}
}

func TestBridgeMICAOverUDP(t *testing.T) {
	cliFab, srvFab, cleanup := twoHosts(t)
	defer cleanup()

	snic, err := srvFab.CreateNIC(100, 4, 256)
	if err != nil {
		t.Fatal(err)
	}
	store := mica.NewStore(4, 1024, 1<<20)
	srv, err := mica.Serve(snic, store, core.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	cnic, _ := cliFab.CreateNIC(1, 1, 256)
	cli, _ := core.NewRpcClient(cnic, 0)
	defer cli.Close()
	if _, err := cli.OpenConnection(100); err != nil {
		t.Fatal(err)
	}
	mc := mica.NewClient(cli)
	for i := 0; i < 30; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if err := mc.Set(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		v, err := mc.Get(k)
		if err != nil || !bytes.Equal(v, k) {
			t.Fatalf("key %d over UDP: %q %v", i, v, err)
		}
	}
}

func TestBridgeNoPeer(t *testing.T) {
	fab := fabric.NewFabric()
	conn, err := NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBridge(fab, conn, NewRouteTable())
	defer b.Close()
	nic, _ := fab.CreateNIC(1, 1, 16)
	cli, _ := core.NewRpcClient(nic, 0)
	defer cli.Close()
	if _, err := cli.OpenConnection(999); err != nil {
		t.Fatal(err)
	}
	cli.SetTimeout(time.Millisecond)
	if _, err := cli.Call(0, nil); err == nil {
		t.Fatal("call to unrouted address succeeded")
	}
	if b.NoPeer.Load() == 0 {
		t.Fatal("NoPeer counter not bumped")
	}
}

// AIMD congestion control: the window grows on clean acks and halves on
// retransmission timeouts, and packets beyond it queue rather than flood.
func TestCongestionWindowDynamics(t *testing.T) {
	// Clean network: window grows.
	clean := newMemNet(0, 4)
	a := NewReliable(clean.conn("a"), ReliableOptions{RTO: 5 * time.Millisecond, InitialWindow: 4})
	defer a.Close()
	b := NewReliable(clean.conn("b"), ReliableOptions{RTO: 5 * time.Millisecond})
	defer b.Close()
	b.SetHandler(func([]byte, string) {})
	for i := 0; i < 200; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for (a.Unacked() > 0 || a.Queued() > 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.Queued() != 0 || a.Unacked() != 0 {
		t.Fatalf("pipeline did not drain: unacked=%d queued=%d", a.Unacked(), a.Queued())
	}
	if w := a.Window("b"); w <= 4 {
		t.Errorf("window did not grow on clean network: %.1f", w)
	}

	// Blackout: window collapses to the floor.
	dark := newMemNet(1.0, 5)
	c := NewReliable(dark.conn("c"), ReliableOptions{RTO: 2 * time.Millisecond, MaxRetries: 4, InitialWindow: 16})
	defer c.Close()
	dark.conn("d")
	for i := 0; i < 8; i++ {
		_ = c.Send("d", []byte{byte(i)})
	}
	deadline = time.Now().Add(2 * time.Second)
	for c.Window("d") > 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if w := c.Window("d"); w > 1 {
		t.Errorf("window did not collapse under total loss: %.1f", w)
	}
}

// Queued packets behind a small window must still all be delivered,
// in-window batches at a time.
func TestCongestionWindowDrainsQueue(t *testing.T) {
	net := newMemNet(0, 6)
	a := NewReliable(net.conn("a"), ReliableOptions{RTO: 5 * time.Millisecond, InitialWindow: 2, MaxWindow: 4})
	defer a.Close()
	b := NewReliable(net.conn("b"), ReliableOptions{RTO: 5 * time.Millisecond})
	defer b.Close()
	var mu sync.Mutex
	got := map[byte]bool{}
	b.SetHandler(func(pkt []byte, _ string) {
		mu.Lock()
		got[pkt[0]] = true
		mu.Unlock()
	})
	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		c := len(got)
		mu.Unlock()
		if c == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("only %d of %d delivered through the window", len(got), n)
}

// ===== Dead-letter plane =====

// A packet the protocol abandons must surface through the dead-letter hook
// with its original (unframed) payload, not vanish silently.
func TestDeadLetterCallback(t *testing.T) {
	net := newMemNet(1.0, 7) // total blackout
	a := NewReliable(net.conn("a"), ReliableOptions{RTO: 2 * time.Millisecond, MaxRetries: 2})
	defer a.Close()
	net.conn("b")

	type deadPkt struct {
		endpoint string
		payload  []byte
	}
	got := make(chan deadPkt, 1)
	a.SetDeadLetter(func(ep string, pkt []byte) {
		cp := make([]byte, len(pkt))
		copy(cp, pkt)
		got <- deadPkt{ep, cp}
	})
	if err := a.Send("b", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-got:
		if d.endpoint != "b" || !bytes.Equal(d.payload, []byte("doomed")) {
			t.Fatalf("dead letter = %q to %q; want original payload to b", d.payload, d.endpoint)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("abandoned packet never dead-lettered")
	}
	if a.DeadLetters.Load() != 1 || a.GaveUp.Load() != 1 {
		t.Fatalf("DeadLetters=%d GaveUp=%d, want 1/1", a.DeadLetters.Load(), a.GaveUp.Load())
	}
}

// A give-up-only tick says nothing new about congestion: the window halves
// once per tick that actually retransmitted, and NOT again when the packet is
// finally abandoned. (Regression: give-up storms used to halve cwnd per tick,
// collapsing the window to the floor before a replacement peer saw traffic.)
func TestGiveUpDoesNotCollapseWindow(t *testing.T) {
	net := newMemNet(1.0, 8) // total blackout
	a := NewReliable(net.conn("a"), ReliableOptions{
		RTO: 2 * time.Millisecond, MaxRetries: 1, InitialWindow: 16,
	})
	defer a.Close()
	net.conn("b")
	if err := a.Send("b", []byte{1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for a.GaveUp.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if a.GaveUp.Load() != 1 {
		t.Fatal("sender never gave up")
	}
	// Exactly one retransmission happened (MaxRetries=1), so exactly one
	// multiplicative decrease: 16 -> 8. The buggy behaviour halved again on
	// the give-up tick, to 4.
	if w := a.Window("b"); w != 8 {
		t.Fatalf("window = %.1f after one retransmit + one give-up, want 8", w)
	}
}

// End-to-end fail-fast: a call routed into a dead path fails with
// core.ErrPeerDead as soon as the transport gives up, via the bridge's
// synthetic FlagDead response — not after the client's full timeout.
func TestBridgeDeadLetterFailsFast(t *testing.T) {
	net := newMemNet(1.0, 9) // the peer is unreachable
	fab := fabric.NewFabric()
	rel := NewReliable(net.conn("cli"), ReliableOptions{RTO: 2 * time.Millisecond, MaxRetries: 3})
	b := NewBridge(fab, rel, NewRouteTable(Route{Lo: 100, Hi: 100, Endpoint: "srv"}))
	defer b.Close()
	net.conn("srv")

	nic, err := fab.CreateNIC(1, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := core.NewRpcClient(nic, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.OpenConnection(100); err != nil {
		t.Fatal(err)
	}
	cli.SetTimeout(30 * time.Second) // the dead-letter must beat this by miles

	start := time.Now()
	_, err = cli.Call(0, []byte("into the void"))
	elapsed := time.Since(start)
	if !errors.Is(err, core.ErrPeerDead) {
		t.Fatalf("call into dead path: err = %v, want ErrPeerDead", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("dead-letter verdict took %v; fail-fast path did not engage", elapsed)
	}
	if core.Retryable(err) {
		t.Fatal("ErrPeerDead must not be retryable")
	}
	if b.DeadLetters.Load() == 0 {
		t.Fatal("bridge dead-letter counter not bumped")
	}
	if cli.PeerDead.Load() != 1 {
		t.Fatalf("client PeerDead = %d, want 1", cli.PeerDead.Load())
	}
}

// ===== Doorbell batching =====

// heldConn is a PacketConn whose first Send blocks until release is closed,
// announcing itself on entered, so a test can queue frames behind a send in
// progress. It records a copy of every datagram sent.
type heldConn struct {
	PacketConn
	entered chan struct{}
	release chan struct{}
	once    sync.Once

	mu   sync.Mutex
	sent [][]byte
}

func hold(c PacketConn) *heldConn {
	return &heldConn{PacketConn: c, entered: make(chan struct{}), release: make(chan struct{})}
}

func (h *heldConn) Send(endpoint string, pkt []byte) error {
	h.mu.Lock()
	h.sent = append(h.sent, append([]byte(nil), pkt...))
	h.mu.Unlock()
	h.once.Do(func() {
		close(h.entered)
		<-h.release
	})
	return h.PacketConn.Send(endpoint, pkt)
}

func (h *heldConn) datagrams() [][]byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([][]byte(nil), h.sent...)
}

// requestFrame marshals a request from NIC 1 to NIC 100 with a payload of
// size bytes.
func requestFrame(t *testing.T, rpcID uint64, size int) []byte {
	t.Helper()
	frame, err := wire.MarshalAppend(nil, &wire.Message{
		Header:  wire.Header{Kind: wire.KindRequest, ConnID: 1, RPCID: rpcID, SrcAddr: 1, DstAddr: 100},
		Payload: bytes.Repeat([]byte{byte(rpcID)}, size),
	})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBridgeCoalescesQueuedFrames: frames forwarded while the TX goroutine
// is inside Send leave as one datagram, whole frames back to back in
// forwarding order; a frame that would take the batch past batchCap starts
// the next datagram. The registry reports frames and datagrams exactly.
func TestBridgeCoalescesQueuedFrames(t *testing.T) {
	cases := []struct {
		name   string
		frames int
		size   int   // payload bytes per frame
		want   []int // frames per datagram after the plug
	}{
		{"one-line frames", 12, 8, []int{12}},
		{"4 KB frames past the cap", 5, 4096 - wire.FirstLinePayload, []int{4, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := newMemNet(0, 20)
			net.conn("srv")
			held := hold(net.conn("cli"))
			b := NewBridge(fabric.NewFabric(), held, NewRouteTable(Route{Lo: 100, Hi: 199, Endpoint: "srv"}))
			defer b.Close()
			reg := metrics.New()
			b.DescribeMetrics(reg)

			if err := b.forward(100, requestFrame(t, 1000, 1)); err != nil {
				t.Fatal(err)
			}
			<-held.entered // the plug is in Send; everything below queues
			var frames [][]byte
			for i := 0; i < tc.frames; i++ {
				f := requestFrame(t, uint64(i+1), tc.size)
				frames = append(frames, f)
				if err := b.forward(100, f); err != nil {
					t.Fatal(err)
				}
			}
			close(held.release)
			want := 1 + len(tc.want)
			waitFor(t, "datagrams", func() bool { return b.Datagrams.Load() == uint64(want) })

			sent := held.datagrams()
			if len(sent) != want {
				t.Fatalf("%d datagrams sent, want %d", len(sent), want)
			}
			for i, n := range tc.want {
				dg := sent[1+i]
				if len(dg) > batchCap {
					t.Errorf("datagram %d is %d bytes, over batchCap %d", 1+i, len(dg), batchCap)
				}
				if wantDg := bytes.Join(frames[:n], nil); !bytes.Equal(dg, wantDg) {
					t.Errorf("datagram %d: %d bytes, want %d frames back to back (%d bytes)", 1+i, len(dg), n, len(wantDg))
				}
				frames = frames[n:]
			}
			snap := reg.Snapshot()
			if fw, dg := snap.Value("bridge.forwarded"), snap.Value("bridge.datagrams"); fw != int64(1+tc.frames) || dg != int64(want) {
				t.Fatalf("bridge.forwarded=%d bridge.datagrams=%d, want %d and %d", fw, dg, 1+tc.frames, want)
			}
		})
	}
}

// TestBridgeQueueBound: with the TX goroutine held in Send, forward accepts
// maxQueued batches and then refuses, retryably, without blocking.
func TestBridgeQueueBound(t *testing.T) {
	net := newMemNet(0, 21)
	net.conn("srv")
	held := hold(net.conn("cli"))
	b := NewBridge(fabric.NewFabric(), held, NewRouteTable(Route{Lo: 100, Hi: 199, Endpoint: "srv"}))
	defer b.Close()
	defer close(held.release)
	if err := b.forward(100, requestFrame(t, 1000, 1)); err != nil {
		t.Fatal(err)
	}
	<-held.entered
	big := requestFrame(t, 1, wire.MaxPayload) // one per batch
	for i := 0; i < maxQueued; i++ {
		if err := b.forward(100, big); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := b.forward(100, big); !errors.Is(err, fabric.ErrRingFull) || !core.Retryable(err) {
		t.Fatalf("forward past maxQueued: err = %v, want retryable fabric.ErrRingFull", err)
	}
	if b.TxFull.Load() != 1 {
		t.Fatalf("TxFull = %d, want 1", b.TxFull.Load())
	}
}

// TestBridgeDeadLetterBatch: when the reliable protocol abandons a batch of
// K requests, each of the K callers fails fast with ErrPeerDead.
func TestBridgeDeadLetterBatch(t *testing.T) {
	net := newMemNet(1.0, 22) // the peer is unreachable
	net.conn("srv")
	held := hold(net.conn("cli"))
	rel := NewReliable(held, ReliableOptions{RTO: 2 * time.Millisecond, MaxRetries: 3})
	fab := fabric.NewFabric()
	b := NewBridge(fab, rel, NewRouteTable(Route{Lo: 100, Hi: 100, Endpoint: "srv"}))
	defer b.Close()
	nic, err := fab.CreateNIC(1, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := core.NewRpcClient(nic, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.OpenConnection(100); err != nil {
		t.Fatal(err)
	}
	cli.SetTimeout(30 * time.Second)

	const k = 6
	errs := make(chan error, k+1)
	call := func() {
		t.Helper()
		if err := cli.CallAsync(0, []byte("into the void"), func(_ []byte, err error) { errs <- err }); err != nil {
			t.Fatal(err)
		}
	}
	call() // the plug: its datagram holds the TX goroutine in Send
	<-held.entered
	for i := 0; i < k; i++ {
		call()
	}
	close(held.release)
	for i := 0; i < k+1; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, core.ErrPeerDead) {
				t.Fatalf("completion %d: err = %v, want ErrPeerDead", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d calls completed", i, k+1)
		}
	}
	if b.Datagrams.Load() != 2 || rel.DeadLetters.Load() != 2 {
		t.Fatalf("datagrams=%d abandoned=%d, want the plug and one batch of %d", b.Datagrams.Load(), rel.DeadLetters.Load(), k)
	}
	if b.DeadLetters.Load() != k+1 || cli.PeerDead.Load() != k+1 {
		t.Fatalf("bridge dead letters=%d client PeerDead=%d, want %d", b.DeadLetters.Load(), cli.PeerDead.Load(), k+1)
	}
}

// TestBridgeCloseRacesForward: senders forwarding while the bridge closes
// neither panic nor leak a pool loan, and Close leaves no bridge goroutine
// behind.
func TestBridgeCloseRacesForward(t *testing.T) {
	base := runtime.NumGoroutine()
	net := newMemNet(0, 23)
	net.conn("srv")
	fab := fabric.NewFabric()
	b := NewBridge(fab, net.conn("cli"), NewRouteTable(Route{Lo: 100, Hi: 100, Endpoint: "srv"}))
	nic, err := fab.CreateNIC(1, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	var sent atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := make([]byte, 100*g)
			for i := 0; ; i++ {
				err := nic.Send(&wire.Message{
					Header:  wire.Header{Kind: wire.KindRequest, ConnID: 1, RPCID: uint64(i), SrcAddr: 1, DstAddr: 100},
					Payload: payload,
				})
				if err != nil {
					if !errors.Is(err, ErrBridgeClose) && !errors.Is(err, fabric.ErrNoRoute) && !errors.Is(err, fabric.ErrRingFull) {
						t.Errorf("send: %v", err)
					}
					if !errors.Is(err, fabric.ErrRingFull) {
						return
					}
				}
				sent.Add(1)
			}
		}(g)
	}
	waitFor(t, "traffic", func() bool { return sent.Load() > 100 })
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if gets, puts := fab.Buffers().Loans(); gets != puts {
		t.Fatalf("fabric pool loans unbalanced: gets=%d puts=%d", gets, puts)
	}
	waitFor(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
}
