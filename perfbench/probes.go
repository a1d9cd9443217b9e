package main

import (
	"fmt"
	"runtime"
	"time"

	"dagger/internal/fabric"
	"dagger/internal/kvs/mica"
	"dagger/internal/ringbuf"
	"dagger/internal/transport"
	"dagger/internal/wire"
)

// Layer probes replay a workload's own seeded inputs through one layer's
// public functions at a time and report ns/op (the median of several
// batches) and allocs/op.

const probeBatches = 5

// sink keeps probe results live so the compiler cannot drop the calls.
var sink []byte

// measure runs op n times per batch and returns the median ns/op and the
// mean allocs/op over all batches.
func measure(n int, op func(i int)) (nsPerOp, allocsPerOp float64) {
	var ms runtime.MemStats
	ns := make([]float64, 0, probeBatches)
	var allocs uint64
	for b := 0; b < probeBatches; b++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(b*n + i)
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - before
	}
	return median(ns), float64(allocs) / float64(probeBatches*n)
}

// probeFrames marshals each payload as the request frame the client would
// send.
func probeFrames(payloads [][]byte) ([][]byte, error) {
	frames := make([][]byte, len(payloads))
	for i, p := range payloads {
		m := probeMessage(p, uint64(i))
		f, err := wire.MarshalAppend(nil, &m)
		if err != nil {
			return nil, err
		}
		frames[i] = f
	}
	return frames, nil
}

func probeMessage(payload []byte, id uint64) wire.Message {
	return wire.Message{
		Header: wire.Header{
			Kind: wire.KindRequest, ConnID: 1, RPCID: id, FnID: fnEcho,
			SrcAddr: clientAddr, DstAddr: serverAddr,
		},
		Payload: payload,
	}
}

// runProbes measures every layer probe on the workload's payloads (the
// request payloads it sends) and on the kv-mica operation stream.
func runProbes(payloads [][]byte, kvOps []kvOp) (map[string]float64, error) {
	out := map[string]float64{}
	frames, err := probeFrames(payloads)
	if err != nil {
		return nil, err
	}
	np := len(payloads)

	// wire: marshal, unmarshal (parse incl. checksum), checksum alone.
	buf := make([]byte, 0, wire.MaxFrameSize)
	out["wire.marshal_ns"], _ = measure(200_000, func(i int) {
		m := probeMessage(payloads[i%np], uint64(i))
		buf, _ = wire.MarshalAppend(buf[:0], &m)
	})
	sink = buf
	out["wire.unmarshal_ns"], _ = measure(200_000, func(i int) {
		m, _, _ := wire.Unmarshal(frames[i%np])
		sink = m.Payload
	})
	out["wire.checksum_ns"], _ = measure(200_000, func(i int) {
		if !wire.VerifyChecksum(frames[i%np]) {
			sink = nil
		}
	})

	// wire: multi-line reassembly, per KB of frame.
	var frameBytes int
	for _, f := range frames {
		frameBytes += len(f)
	}
	pool := ringbuf.NewBufPool(64, nil, fabric.DefaultPoolConfig().Classes...)
	ras := wire.NewReassemblerPool(pool)
	nsPerFrame, _ := measure(20_000, func(i int) {
		f := frames[i%np]
		for off := 0; off+wire.CacheLineSize <= len(f); off += wire.CacheLineSize {
			if m, done, _ := ras.AddLine(0, f[off:off+wire.CacheLineSize]); done {
				pool.Put(m.Payload)
			}
		}
	})
	out["wire.reassemble_ns_per_kb"] = nsPerFrame / (float64(frameBytes) / float64(np) / 1024)

	// ringbuf: ring push+pop and pool get+put at the workload's frame sizes.
	ring := ringbuf.New[[]byte](fabric.DefaultRingDepth)
	out["ringbuf.ring_pushpop_ns"], _ = measure(500_000, func(i int) {
		ring.Push(frames[i%np])
		sink, _ = ring.Pop()
	})
	out["ringbuf.pool_getput_ns"], _ = measure(500_000, func(i int) {
		b := pool.Get(len(frames[i%np]))
		pool.Put(b)
	})

	// fabric: SoftNIC.Send (marshal, steer, admit, deliver) + Flow.TryRecv.
	ns, err := probeFabric(payloads)
	if err != nil {
		return nil, err
	}
	out["fabric.send_recv_ns"] = ns

	// codec and store: the kv-mica stream.
	if err := probeKV(kvOps, out); err != nil {
		return nil, err
	}

	us, err := probeReliable(frames)
	if err != nil {
		return nil, err
	}
	out["transport.reliable_oneway_us"] = us
	return out, nil
}

func probeFabric(payloads [][]byte) (float64, error) {
	fab := fabric.NewFabric()
	src, err := fab.CreateNIC(clientAddr, 1, 0)
	if err != nil {
		return 0, err
	}
	dst, err := fab.CreateNIC(serverAddr, 1, 0)
	if err != nil {
		return 0, err
	}
	fl, err := dst.Flow(0)
	if err != nil {
		return 0, err
	}
	var sendErr error
	ns, _ := measure(100_000, func(i int) {
		m := probeMessage(payloads[i%len(payloads)], uint64(i))
		if err := src.Send(&m); err != nil {
			sendErr = err
			return
		}
		if f, ok := fl.TryRecv(); ok {
			fl.Buffers().Put(f)
		}
	})
	return ns, sendErr
}

// probeKV measures the IDL-style codec work of one mica RPC (request encode
// and response decode on the client, request decode and response encode in
// the handler, as mica.Client and mica.Serve do them) and the store's GET
// and SET.
func probeKV(ops []kvOp, out map[string]float64) error {
	store := mica.NewStore(1, kvBuckets*2, 32<<20)
	var key, val [32]byte
	for rec := uint64(0); rec < kvRecords; rec++ {
		if err := store.Set(kvKey(key[:], rec), kvValue(val[:], rec, 0)); err != nil {
			return fmt.Errorf("probe store: %w", err)
		}
	}
	no := len(ops)
	// The operands and wire forms of every op: request as mica.Client
	// encodes it, response as the mica handler encodes it (a GET hit
	// carries the value, a SET its ack).
	keys, vals := make([][]byte, no), make([][]byte, no)
	reqs, resps := make([][]byte, no), make([][]byte, no)
	for i, op := range ops {
		keys[i] = kvKey(nil, op.rec())
		vals[i] = kvValue(make([]byte, kvDataset.ValueSize), op.rec(), 0)
		e := wire.NewEncoder(nil)
		e.Bytes16(keys[i])
		r := wire.NewEncoder(nil)
		r.Bool(true)
		if op.set() {
			e.Bytes16(vals[i])
		} else {
			r.Bytes16(vals[i])
		}
		reqs[i], resps[i] = e.Bytes(), r.Bytes()
	}
	var encAllocs, decAllocs float64
	out["codec.encode_ns"], encAllocs = measure(100_000, func(i int) {
		set := ops[i%no].set()
		e := wire.NewEncoder(nil)
		e.Bytes16(keys[i%no])
		if set {
			e.Bytes16(vals[i%no])
		}
		sink = e.Bytes()
		r := wire.NewEncoder(nil)
		r.Bool(true)
		if !set {
			r.Bytes16(vals[i%no])
		}
		sink = r.Bytes()
	})
	out["codec.decode_ns"], decAllocs = measure(100_000, func(i int) {
		set := ops[i%no].set()
		d := wire.NewDecoder(reqs[i%no])
		sink = d.Bytes16()
		if set {
			sink = d.Bytes16()
		}
		r := wire.NewDecoder(resps[i%no])
		if r.Bool() && !set {
			sink = append([]byte(nil), r.Bytes16()...)
		}
	})
	out["codec.allocs_per_op"] = encAllocs + decAllocs

	out["kvs.mica_get_ns"], _ = measure(100_000, func(i int) {
		sink, _ = store.Get(keys[i%no])
	})
	out["kvs.mica_set_ns"], _ = measure(40_000, func(i int) {
		_ = store.Set(keys[i%no], vals[i%no])
	})
	return nil
}

// probeReliable measures one-way delivery of the workload's frames over
// transport.Reliable on loopback UDP: send, then wait until the peer's
// handler has the datagram. It reports the median in microseconds.
func probeReliable(frames [][]byte) (float64, error) {
	a, err := transport.NewUDPConn("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	b, err := transport.NewUDPConn("127.0.0.1:0")
	if err != nil {
		_ = a.Close()
		return 0, err
	}
	ra := transport.NewReliable(a, transport.ReliableOptions{})
	rb := transport.NewReliable(b, transport.ReliableOptions{})
	defer ra.Close()
	defer rb.Close()
	got := make(chan time.Time, 1)
	rb.SetHandler(func([]byte, string) { got <- time.Now() })
	const n = 3000
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := ra.Send(b.LocalEndpoint(), frames[i%len(frames)]); err != nil {
			return 0, err
		}
		select {
		case t1 := <-got:
			lat = append(lat, float64(t1.Sub(t0).Nanoseconds())/1e3)
		case <-time.After(time.Second):
			return 0, fmt.Errorf("reliable probe: datagram %d not delivered within 1s", i)
		}
	}
	return median(lat), nil
}
