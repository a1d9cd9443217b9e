package main

import (
	"bytes"
	"errors"
	"net"
	"strconv"
	"testing"
	"time"

	"dagger/internal/core"
	"dagger/internal/transport"
)

// TestServerSurvivesSecondClient drives two client endpoints at one server.
// Both clients use the same NIC address range, so the server routes only the
// first; the second's frames must be dropped rather than crash the server
// with an overlapping-route panic, and the first must keep being served.
func TestServerSurvivesSecondClient(t *testing.T) {
	srvConn, err := transport.NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, stop, err := startServer(srvConn, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	dial := func() *core.RpcClient {
		t.Helper()
		conn, err := transport.NewUDPConn("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		pool, stop, err := dialServer(conn, srvConn.LocalEndpoint(), 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(stop)
		return pool.Client(0)
	}
	echo := func(cli *core.RpcClient) error {
		resp, err := cli.Call(fnEcho, []byte("ping"))
		if err == nil && !bytes.Equal(resp, []byte("ping")) {
			t.Fatalf("echo = %q", resp)
		}
		return err
	}

	first, second := dial(), dial()
	if err := echo(first); err != nil {
		t.Fatalf("first client: %v", err)
	}
	second.SetTimeout(100 * time.Millisecond)
	if err := echo(second); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("second client: err = %v, want ErrTimeout (frames dropped)", err)
	}
	if err := echo(first); err != nil {
		t.Fatalf("first client after second connected: %v", err)
	}
	if got := srv.Handled.Load(); got != 2 {
		t.Fatalf("server handled %d requests, want 2 (first client only)", got)
	}
}

// TestDialByHostname: a client naming the server by hostname must have its
// requests acknowledged, and so keep being served past the reliable
// protocol's initial window of 32 packets. Acks come back from the server's
// ip:port, so unless the peer is canonicalized they never match the
// sender's state, the window fills and the client stalls.
func TestDialByHostname(t *testing.T) {
	srvConn, err := transport.NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, stop, err := startServer(transport.NewReliable(srvConn, transport.ReliableOptions{}), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cliConn, err := transport.NewUDPConn("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, port, err := net.SplitHostPort(srvConn.LocalEndpoint())
	if err != nil {
		t.Fatal(err)
	}
	cliRel := transport.NewReliable(cliConn, transport.ReliableOptions{})
	pool, stopCli, err := dialServer(cliRel, net.JoinHostPort("localhost", port), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stopCli()
	cli := pool.Client(0)
	cli.SetTimeout(5 * time.Second)
	for i := 0; i < 100; i++ {
		req := []byte(strconv.Itoa(i))
		resp, err := cli.Call(fnEcho, req)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(resp, req) {
			t.Fatalf("call %d: echo = %q", i, resp)
		}
		// The request's ack rides on its response, or on a pure ack the
		// server's tick sent just before it, which the response may
		// overtake.
		deadline := time.Now().Add(time.Second)
		for cliRel.Unacked() != 0 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		if n := cliRel.Unacked(); n != 0 {
			t.Fatalf("after call %d: %d packets unacked", i, n)
		}
	}
}
