package fabric

import (
	"testing"
)

// TestNICMetricsMatchGetters drives traffic through a NIC pair and checks
// every pre-existing getter against its registry-backed sample: the getters
// are now thin adapters, and this pins that the adaptation is lossless.
func TestNICMetricsMatchGetters(t *testing.T) {
	_, a, b := twoNICs(t)
	for i := 0; i < 40; i++ {
		// A handful of connections so the conn cache sees opens and hits.
		if err := a.Send(req(1, 2, uint32(i%4+1), 0, "payload")); err != nil {
			t.Fatal(err)
		}
	}
	for _, nic := range []*SoftNIC{a, b} {
		s := nic.Metrics().Snapshot()
		st := nic.ConnStats()
		var marks uint64
		for i := 0; i < nic.NumFlows(); i++ {
			fl, _ := nic.Flow(i)
			marks += fl.Marked()
		}
		checks := map[string]int64{
			"rpc.in":          int64(nic.RPCsIn.Load()),
			"rpc.out":         int64(nic.RPCsOut.Load()),
			"bytes.in":        int64(nic.BytesIn.Load()),
			"bytes.out":       int64(nic.BytesOut.Load()),
			"drop.ring":       int64(nic.Drops.Load()),
			"mark.rx.stamped": int64(marks),
			"conn.hits":       int64(st.Hits),
			"conn.misses":     int64(st.Misses),
			"conn.evictions":  int64(st.Evictions),
			"conn.opens":      int64(st.Opens),
			"conn.closes":     int64(st.Closes),
			"conn.open":       int64(nic.ConnOpenCount()),
		}
		for name, want := range checks {
			if got := s.Value(name); got != want {
				t.Errorf("nic %d: %s = %d, want %d (getter)", nic.Addr(), name, got, want)
			}
		}
		if _, ok := s.Get("frame.bytes"); !ok {
			t.Errorf("nic %d: frame.bytes histogram not registered", nic.Addr())
		}
	}

	// The sender's frame-size histogram saw every send, each one frame of
	// WireSize bytes.
	fb, _ := a.Metrics().Snapshot().Get("frame.bytes")
	if fb.Value != int64(a.RPCsOut.Load()) {
		t.Fatalf("frame.bytes count %d != rpc.out %d", fb.Value, a.RPCsOut.Load())
	}
}

// TestFlowMarkDropMetrics fills a depth-4 ring without consuming: the
// registry's mark and drop gauges must equal the per-flow getters.
func TestFlowMarkDropMetrics(t *testing.T) {
	f := NewFabric()
	a, err := f.CreateNIC(1, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.CreateNIC(2, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		m := req(1, 2, 1, 0, "x")
		m.RPCID = uint64(i + 1)
		_ = a.Send(m) // overflow drops are expected
	}
	fl, _ := b.Flow(0)
	s := b.Metrics().Snapshot()
	if got := s.Value("mark.rx.stamped"); got != int64(fl.Marked()) || got == 0 {
		t.Fatalf("mark.rx.stamped = %d, flow getter %d", got, fl.Marked())
	}
	if got := s.Value("drop.rx.ring"); got != int64(fl.Dropped()) || got == 0 {
		t.Fatalf("drop.rx.ring = %d, flow getter %d", got, fl.Dropped())
	}
	if got := s.Value("drop.ring"); got != int64(b.Drops.Load()) {
		t.Fatalf("drop.ring = %d, NIC counter %d", got, b.Drops.Load())
	}
}
