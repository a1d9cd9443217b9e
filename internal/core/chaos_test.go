package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"dagger/internal/fabric"
	"dagger/internal/faults"
)

// Delivery semantics under duplication, pinned end to end: the fabric is
// at-least-once (a duplicated request runs the handler again — handlers must
// be idempotent or deduplicate on their own state, see DESIGN.md §9), while
// call completion is exactly-once (the client's pending-table match completes
// each RPC once; the duplicate response is counted Late and its buffer
// repaid).
func TestDuplicateDeliveryAtLeastOnce(t *testing.T) {
	f := fabric.NewFabric()
	cnic, err := f.CreateNIC(1, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	snic, err := f.CreateNIC(2, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(faults.Config{
		Seed:  3,
		Rates: faults.Rates{Duplicate: faults.RateDenominator},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every request admitted at the server NIC is delivered twice; responses
	// come back over the un-faulted client NIC.
	snic.SetFaultInjector(inj)

	srv := NewRpcThreadedServer(snic, ServerConfig{})
	if err := srv.Register(0, "echo", func(_ context.Context, req []byte) ([]byte, error) {
		return req, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	cli, err := NewRpcClient(cnic, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.OpenConnection(2); err != nil {
		t.Fatal(err)
	}

	const n = 20
	for i := 0; i < n; i++ {
		resp, err := cli.Call(0, []byte("dup?"))
		if err != nil {
			t.Fatalf("call %d under duplication: %v", i, err)
		}
		if !bytes.Equal(resp, []byte("dup?")) {
			t.Fatalf("call %d: resp %q", i, resp)
		}
		cli.Release(resp)
	}

	// At-least-once at the server: every duplicate ran the handler. The
	// duplicate responses trail their originals, so poll for the steady state.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.Handled.Load() == 2*n && cli.Late.Load() == n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.Handled.Load(); got != 2*n {
		t.Fatalf("server handled %d requests, want %d (each delivered twice)", got, 2*n)
	}
	// Exactly-once completion at the client: one completion per call, the
	// duplicate response observable only as the call.late counter.
	if got := cli.Completed.Load(); got != n {
		t.Fatalf("client completed %d calls, want %d", got, n)
	}
	if got := cli.Late.Load(); got != n {
		t.Fatalf("client late responses = %d, want %d (one per duplicate)", got, n)
	}
}

// TestChaosInFabricEcho pins the chaos story's in-fabric gates: serial echo
// calls through a server NIC whose admission stage drops, duplicates, delays,
// reorders and corrupts at 1% per class. A faulted call may time out, but
// none may fail otherwise, no corrupted payload may be accepted, the NIC
// must catch exactly the corrupt frames the seed's plan injects, and
// goodput must stay at or above 90%.
func TestChaosInFabricEcho(t *testing.T) {
	const (
		calls = 400
		ppm   = 10_000
	)
	cfg := faults.Config{
		Seed:  0xC4A05,
		Rates: faults.Rates{Drop: ppm, Duplicate: ppm, Delay: ppm, Reorder: ppm, Corrupt: ppm},
	}
	// Each serial call admits exactly one request frame at the server NIC,
	// so the plan for calls admissions is the run's fault schedule.
	wantCorrupts := faults.CountClasses(faults.Plan(cfg, calls))[faults.CorruptBit]
	if wantCorrupts < 3 {
		t.Fatalf("seed plans only %d corrupts over %d admissions; the catch gate would be vacuous", wantCorrupts, calls)
	}
	inj, err := faults.NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, snic, shutdown := connPair(t, 1, 0)
	defer shutdown()
	snic.SetFaultInjector(inj)
	if _, err := cli.OpenConnection(2); err != nil {
		t.Fatal(err)
	}
	// A dropped request costs one timeout and no more.
	cli.SetTimeout(50 * time.Millisecond)

	payload := []byte("chaos-pattern-0123456789abcdef")
	succeeded := 0
	for i := 0; i < calls; i++ {
		resp, err := cli.Call(0, payload)
		switch {
		case err == nil:
			if !bytes.Equal(resp, payload) {
				t.Fatalf("call %d: corrupted payload accepted: %q", i, resp)
			}
			succeeded++
			cli.Release(resp)
		case errors.Is(err, ErrTimeout):
			// A faulted request: bounded by the timeout, never a hang.
		default:
			t.Fatalf("call %d failed outside the fault model: %v", i, err)
		}
	}
	snic.FlushFaults()

	if got := inj.Issued(); got != calls {
		t.Fatalf("server NIC drew %d verdicts, want %d (one per request)", got, calls)
	}
	s := snic.Metrics().Snapshot()
	if got := s.Value("fault.corrupted"); got != int64(wantCorrupts) {
		t.Fatalf("fault.corrupted = %d, want %d (planned)", got, wantCorrupts)
	}
	if caught := s.Value("fault.corrupt.dropped"); caught != int64(wantCorrupts) {
		t.Fatalf("NIC caught %d of %d corrupted frames; the rest were dispatched", caught, wantCorrupts)
	}
	if succeeded*10 < calls*9 {
		t.Fatalf("only %d of %d calls succeeded at 1%% per-class faults", succeeded, calls)
	}
}
