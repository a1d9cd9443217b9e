package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"dagger/internal/core"
	"dagger/internal/fabric"
	"dagger/internal/kvs/mica"
)

func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(sizeSeq(7, 1000), sizeSeq(7, 1000)) {
		t.Error("sizeSeq: same seed gave different sizes")
	}
	if reflect.DeepEqual(sizeSeq(7, 1000), sizeSeq(8, 1000)) {
		t.Error("sizeSeq: different seeds gave the same sizes")
	}
	if !reflect.DeepEqual(kvOpSeq(7, 1000), kvOpSeq(7, 1000)) {
		t.Error("kvOpSeq: same seed gave different operations")
	}
	if reflect.DeepEqual(kvOpSeq(7, 1000), kvOpSeq(8, 1000)) {
		t.Error("kvOpSeq: different seeds gave the same operations")
	}
	a, b := make([]byte, 300), make([]byte, 300)
	fillEcho(a, newPattern(7), 42)
	fillEcho(b, newPattern(7), 42)
	if !bytes.Equal(a, b) {
		t.Error("fillEcho: same seed and id gave different payloads")
	}
	fillEcho(b, newPattern(8), 42)
	if bytes.Equal(a, b) {
		t.Error("fillEcho: different seeds gave the same payload")
	}
	if id, ok := echoID(a); !ok || id != 42 {
		t.Errorf("echoID = %d, %v; want 42, true", id, ok)
	}
}

// TestGeneratedShapes checks the generated inputs against the shapes they
// model. The udp-mix sizes must meet the paper's Fig. 4 fractions: 75% of
// requests under 512 B and over 90% of responses at most 64 B.
func TestGeneratedShapes(t *testing.T) {
	sizes := sizeSeq(1, 20000)
	var req512, rsp64 int
	for _, sz := range sizes {
		if sz.req < replyHeader || sz.req > maxPayload || sz.rsp < 1 || sz.rsp > maxPayload {
			t.Fatalf("size pair %+v outside [%d, %d]", sz, replyHeader, maxPayload)
		}
		if sz.req < 512 {
			req512++
		}
		if sz.rsp <= 64 {
			rsp64++
		}
	}
	if frac := float64(req512) / float64(len(sizes)); frac < 0.75 {
		t.Errorf("%.3f of requests are under 512 B; Fig. 4 has 0.75", frac)
	}
	if frac := float64(rsp64) / float64(len(sizes)); frac <= 0.9 {
		t.Errorf("%.3f of responses are at most 64 B; Fig. 4 has over 0.9", frac)
	}
	sets := 0
	ops := kvOpSeq(1, 20000)
	for _, op := range ops {
		if op.rec() >= kvRecords {
			t.Fatalf("record %d outside the keyspace", op.rec())
		}
		if op.set() {
			sets++
		}
	}
	if frac := float64(sets) / float64(len(ops)); frac < 0.45 || frac > 0.55 {
		t.Errorf("SET fraction %.2f; want about 0.5", frac)
	}
}

// TestReply checks the udp-mix request/response protocol: a request yields
// exactly the response it asks for, and a malformed one is refused.
func TestReply(t *testing.T) {
	pattern := newPattern(7)
	req := make([]byte, 40)
	fillRequest(req, pattern, 42, maxPayload)
	resp, ok := reply(pattern, req)
	if !ok || !bytes.Equal(resp, replyFor(pattern, 42, maxPayload)) || len(resp) != maxPayload {
		t.Fatalf("reply = %d bytes, %v; want the %d B response for id 42", len(resp), ok, maxPayload)
	}
	if bytes.Equal(resp, replyFor(pattern, 43, maxPayload)) {
		t.Error("ids 42 and 43 expect the same response")
	}
	if _, ok := reply(pattern, req[:replyHeader-1]); ok {
		t.Error("short request answered")
	}
	fillRequest(req, pattern, 42, maxPayload+1)
	if _, ok := reply(pattern, req); ok {
		t.Error("request for an oversized response answered")
	}
}

// TestHandlerSpanCollision checks that a span is dropped when another
// request's stamps took its slot in the tracer's table.
func TestHandlerSpanCollision(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	h := tr.handler(echo)
	a := uint64(1)<<56 | 1
	b := a + 1
	for tr.slot(b) != tr.slot(a) {
		b++
	}
	for _, id := range []uint64{a, b} {
		req := make([]byte, 16)
		fillEcho(req, newPattern(1), id)
		if _, err := h(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if sp := (span{ID: a}); tr.handlerSpan(&sp) {
		t.Errorf("span %#x took the stamps of %#x", a, b)
	}
	if sp := (span{ID: b}); !tr.handlerSpan(&sp) || sp.HandlerIn == 0 || sp.HandlerOut < sp.HandlerIn {
		t.Errorf("span %#x lost its own stamps: %+v", b, sp)
	}
}

// TestAsyncStaleCompletion checks that a completion for an expired request
// (here a late error) is not charged to the request reissued on its slot.
func TestAsyncStaleCompletion(t *testing.T) {
	nic, err := fabric.NewFabric().CreateNIC(clientAddr, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := core.NewRpcClient(nic, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	fl, err := nic.Flow(0)
	if err != nil {
		t.Fatal(err)
	}
	pattern := newPattern(1)
	a := newAsyncCaller(cli, newTracer(), pattern, sizeSeq(1, 16), 1<<56)
	rec := &recorder{}
	a.rec = rec
	old, _ := a.begin(0)
	a.expire(time.Now().Add(2 * asyncDeadline))
	<-a.free
	cur, _ := a.begin(0)
	old.cb(nil, core.ErrPeerDead)
	if got := rec.failed.Load(); got != 1 {
		t.Fatalf("failed = %d after the late error, want 1 (the expiry)", got)
	}
	if len(a.free) != 0 {
		t.Fatal("late error freed the reissued slot")
	}
	sl := &a.slots[0]
	want := replyFor(pattern, sl.id, sl.rsp)
	resp := fl.Buffers().Get(len(want))[:len(want)]
	copy(resp, want)
	cur.cb(resp, nil)
	if rec.completed.Load() != 1 || rec.failed.Load() != 1 || len(a.free) != 1 {
		t.Errorf("completed %d failed %d free %d; want 1, 1, 1", rec.completed.Load(), rec.failed.Load(), len(a.free))
	}
	if len(a.spare) != 2*udpWindow {
		t.Errorf("%d spare callbacks, want %d", len(a.spare), 2*udpWindow)
	}
}

func TestKVChecker(t *testing.T) {
	issued := func(w int) uint64 { return 10 }
	val := kvValue(make([]byte, 32), 5, kvVersion(1, 3))
	if err := checkKVValue(val, 5, 2, issued); err != nil {
		t.Fatalf("valid value rejected: %v", err)
	}
	if err := checkKVValue(val, 6, 2, issued); err == nil {
		t.Error("value of record 5 accepted for record 6")
	}
	if err := checkKVValue(kvValue(make([]byte, 32), 5, kvVersion(0, 0)), 5, 2, issued); err != nil {
		t.Errorf("prepopulated value rejected: %v", err)
	}
	tampered := append([]byte(nil), val...)
	tampered[20] ^= 1
	if err := checkKVValue(tampered, 5, 2, issued); err == nil {
		t.Error("value with a corrupt tag accepted")
	}
	if err := checkKVValue(kvValue(make([]byte, 32), 5, kvVersion(1, 11)), 5, 2, issued); err == nil {
		t.Error("value at a version never issued accepted")
	}
	if err := checkKVValue(kvValue(make([]byte, 32), 5, kvVersion(3, 1)), 5, 2, issued); err == nil {
		t.Error("value from an unknown writer accepted")
	}
	if err := checkKVValue(val[:31], 5, 2, issued); err == nil {
		t.Error("short value accepted")
	}
}

func TestPercentileExact(t *testing.T) {
	s := make([]uint32, 100)
	for i := range s {
		s[i] = uint32(100 - i) // 100..1, unsorted
	}
	sortU32(s)
	for _, c := range []struct {
		p    float64
		want uint32
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}, {99.5, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]uint32{3, 5, 9}, 50); got != 5 {
		t.Errorf("percentile({3,5,9}, 50) = %d, want 5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %d, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range workloads {
		if w.name != "echo-lockstep" { // runnable, not gated; see workloads
			wls = append(wls, w.name)
		}
	}
	var specWls []string
	for _, w := range spec.Workloads {
		specWls = append(specWls, w.Name)
	}
	if !reflect.DeepEqual(wls, specWls) {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", wls, specWls)
	}
	var e2e, layer [][2]string
	for _, m := range endToEnd {
		if m.gated {
			e2e = append(e2e, [2]string{m.name, m.unit})
		}
	}
	for _, m := range perLayer {
		layer = append(layer, [2]string{m.name, m.unit})
	}
	specPairs := func(ms []struct{ Name, Unit string }) [][2]string {
		var out [][2]string
		for _, m := range ms {
			out = append(out, [2]string{m.Name, m.Unit})
		}
		return out
	}
	if got, want := specPairs(spec.EndToEnd), e2e; !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end: BENCHMARK.json %v, program %v", got, want)
	}
	if got, want := specPairs(spec.PerLayer), layer; !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer: BENCHMARK.json %v, program %v", got, want)
	}
}

// TestKVStoreHoldsKeyspace checks the kv-mica index sizing: every
// prepopulated record must stay readable, or GETs would miss before any log
// wrap.
func TestKVStoreHoldsKeyspace(t *testing.T) {
	store := mica.NewStore(kvFlows, kvBuckets, 2*kvRecords*kvRecordLen/kvFlows)
	var key, val [32]byte
	for rec := uint64(0); rec < kvRecords; rec++ {
		if err := store.Set(kvKey(key[:], rec), kvValue(val[:], rec, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for rec := uint64(0); rec < kvRecords; rec++ {
		got, err := store.Get(kvKey(key[:], rec))
		if err != nil {
			t.Fatalf("record %d: %v", rec, err)
		}
		if err := checkKVValue(got, rec, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWorkloadsSmoke runs every workload briefly end to end: no failures,
// balanced buffer pools after drain.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			tr := newTracer()
			st, err := wl.prepare(3)(tr)
			if err != nil {
				t.Fatal(err)
			}
			if failed := warmUp(st.callers, 200); failed > 0 {
				t.Errorf("%d warm-up calls failed", failed)
			}
			tr.on.Store(true)
			seg, err := runSegment(st.callers, window, true)
			st.close()
			if err != nil {
				t.Fatal(err)
			}
			if err := st.checkLoans(); err != nil {
				t.Error(err)
			}
			tot := seg.totals()
			if tot.completed == 0 || tot.failed > 0 {
				t.Errorf("completed %d, failed %d", tot.completed, tot.failed)
			}
			if len(seg.win) != 1 {
				t.Errorf("got %d windows, want 1", len(seg.win))
			}
		})
	}
}
