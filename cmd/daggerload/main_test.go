package main

import (
	"bytes"
	"errors"
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
