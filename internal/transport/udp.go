package transport

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"dagger/internal/metrics"
)

// maxDatagram bounds one UDP payload, and is the size of the receive
// buffer: a Bridge batch (batchCap) plus the protocol header fits. Send
// refuses anything larger, which the receiver would silently truncate.
const maxDatagram = 20 * 1024

// maxCachedEndpoints bounds each address cache. Inbound sources are chosen
// by peers, so a cache that reaches the bound is emptied and refilled.
const maxCachedEndpoints = 1024

// UDPConn is the production PacketConn: one UDP socket per host. The from
// endpoint it passes to the handler is always the sender's canonical
// ip:port (IPv4 unmapped, see CanonicalEndpoint), so replies and
// per-peer state keyed by it match a peer named the same way.
type UDPConn struct {
	conn    *net.UDPConn
	mu      sync.RWMutex
	handler func([]byte, string)
	closed  atomic.Bool
	wg      sync.WaitGroup

	addrMu sync.RWMutex
	addrs  map[string]netip.AddrPort // Send's resolved endpoints

	Sent     metrics.Counter
	Received metrics.Counter
}

// DescribeMetrics registers the socket's datagram counters into reg.
func (u *UDPConn) DescribeMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("udp.sent", &u.Sent)
	reg.RegisterCounter("udp.received", &u.Received)
}

// NewUDPConn binds a UDP socket on addr ("127.0.0.1:0" for an ephemeral
// port) and starts its receive loop.
func NewUDPConn(addr string) (*UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	u := &UDPConn{conn: conn, addrs: make(map[string]netip.AddrPort)}
	u.wg.Add(1)
	go u.recvLoop()
	return u, nil
}

func (u *UDPConn) recvLoop() {
	defer u.wg.Done()
	buf := make([]byte, maxDatagram)
	// names caches each source's endpoint string; only this goroutine
	// touches it.
	names := make(map[netip.AddrPort]string)
	for {
		n, src, err := u.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // socket closed
		}
		u.Received.Add(1)
		from, ok := names[src]
		if !ok {
			if len(names) >= maxCachedEndpoints {
				clear(names)
			}
			from = unmap(src).String()
			names[src] = from
		}
		u.mu.RLock()
		h := u.handler
		u.mu.RUnlock()
		if h != nil {
			// The receive buffer is reused across datagrams; handlers get
			// a borrowed view per the PacketConn contract and copy if they
			// retain it.
			h(buf[:n], from)
		}
	}
}

// Send transmits one datagram to endpoint (host:port). A datagram longer
// than maxDatagram fails with ErrDatagramTooLarge.
func (u *UDPConn) Send(endpoint string, pkt []byte) error {
	if u.closed.Load() {
		return ErrBridgeClose
	}
	if len(pkt) > maxDatagram {
		return fmt.Errorf("%w: %d bytes", ErrDatagramTooLarge, len(pkt))
	}
	ap, err := u.resolve(endpoint)
	if err != nil {
		return err
	}
	if _, err := u.conn.WriteToUDPAddrPort(pkt, ap); err != nil {
		return err
	}
	u.Sent.Add(1)
	return nil
}

// resolve returns endpoint's address, resolving it on first use only.
func (u *UDPConn) resolve(endpoint string) (netip.AddrPort, error) {
	u.addrMu.RLock()
	ap, ok := u.addrs[endpoint]
	u.addrMu.RUnlock()
	if ok {
		return ap, nil
	}
	ap, err := resolveUDP(endpoint)
	if err != nil {
		return ap, err
	}
	u.addrMu.Lock()
	if len(u.addrs) >= maxCachedEndpoints {
		clear(u.addrs)
	}
	u.addrs[endpoint] = ap
	u.addrMu.Unlock()
	return ap, nil
}

// resolveUDP resolves a host:port endpoint, host a name or an address.
func resolveUDP(endpoint string) (netip.AddrPort, error) {
	ua, err := net.ResolveUDPAddr("udp", endpoint)
	if err != nil {
		return netip.AddrPort{}, err
	}
	return unmap(ua.AddrPort()), nil
}

// unmap turns an IPv4-mapped IPv6 address into plain IPv4: the form an IPv4
// socket accepts and the one datagrams from IPv4 peers are named by.
func unmap(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// CanonicalEndpoint resolves endpoint (host:port, host a name or an
// address) to the ip:port string a UDPConn names that peer by in its
// handler's from argument. Per-peer state is keyed by endpoint string, so a
// peer named by hostname must be canonicalized before traffic flows, or the
// replies it sends never match the state its requests created.
func CanonicalEndpoint(endpoint string) (string, error) {
	ap, err := resolveUDP(endpoint)
	if err != nil {
		return "", err
	}
	return ap.String(), nil
}

// SetHandler installs the receive callback.
func (u *UDPConn) SetHandler(h func([]byte, string)) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.handler = h
}

// LocalEndpoint returns the bound host:port.
func (u *UDPConn) LocalEndpoint() string { return u.conn.LocalAddr().String() }

// Close shuts the socket and waits for the receive loop.
func (u *UDPConn) Close() error {
	if u.closed.Swap(true) {
		return nil
	}
	err := u.conn.Close()
	u.wg.Wait()
	return err
}
