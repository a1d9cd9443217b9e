package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"dagger/internal/fabric"
	"dagger/internal/ringbuf"
	"dagger/internal/wire"
)

// datagram frames a protocol datagram by hand, independently of frame.
func datagram(typ byte, seq uint64, acks []uint64, payload []byte) []byte {
	b := []byte{typ}
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = append(b, byte(len(acks)))
	for _, a := range acks {
		b = binary.LittleEndian.AppendUint64(b, a)
	}
	return append(b, payload...)
}

// FuzzReliablePacket feeds arbitrary datagrams from a peer to the protocol.
// The datagram is peer-controlled, so whatever its header claims (short
// headers, more acks than the packet holds, acks for unknown sequences) the
// parser must not panic; a data packet's payload reaches the handler intact
// and at most once however often it arrives; and acks only ever retire
// packets actually outstanding.
func FuzzReliablePacket(f *testing.F) {
	f.Add(datagram(pktData, 1, nil, []byte("hello")))
	f.Add(datagram(pktData|flagAckNow, 7, []uint64{1, 2}, []byte("x")))
	f.Add(datagram(pktAck, 0, []uint64{1, 3, 99}, nil))
	truncated := datagram(pktAck, 0, []uint64{1, 2, 3}, nil)
	f.Add(truncated[:len(truncated)-12])
	f.Add([]byte{pktData, 1, 2, 3})

	net := newMemNet(1, 1) // sends go nowhere: no goroutines, no traffic
	net.conn("b")
	// One instance for the whole run, its tick far beyond it: coverage from
	// a per-input retransmit goroutine would vary from run to run and make
	// inputs look interesting at random. Each input starts from a fresh
	// peer state.
	r := NewReliable(net.conn("a"), ReliableOptions{RTO: time.Hour, InitialWindow: 2})
	f.Cleanup(func() { r.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		// Reset here rather than in a defer: a panic inside onPacket leaves
		// the lock held, and a deferred reset would turn it into a hang.
		r.mu.Lock()
		delete(r.peers, "b")
		r.mu.Unlock()
		var got [][]byte
		r.SetHandler(func(pkt []byte, from string) {
			if from != "b" {
				t.Errorf("from = %q", from)
			}
			got = append(got, append([]byte(nil), pkt...))
		})
		const sent = 3 // two in the window, one queued behind it
		for i := 0; i < sent; i++ {
			if err := r.Send("b", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		r.onPacket(data, "b")
		r.onPacket(data, "b")

		if len(got) > 1 {
			t.Fatalf("payload delivered %d times", len(got))
		}
		if len(got) == 1 {
			if len(data) < hdrFixed || data[0]&^flagAckNow != pktData {
				t.Fatalf("non-data datagram % x delivered", data)
			}
			if body := hdrFixed + 8*int(data[9]); !bytes.Equal(got[0], data[body:]) {
				t.Fatalf("delivered %q, want %q", got[0], data[body:])
			}
		}
		if out := r.Unacked() + r.Queued(); out > sent {
			t.Fatalf("%d packets outstanding, only %d sent", out, sent)
		}
		if w := r.Window("b"); w < 1 || w > r.maxWnd {
			t.Fatalf("window %v out of [1, %v]", w, r.maxWnd)
		}
	})
}

// splitFrames splits a batch by its headers' Len fields, independently of
// the bridge, returning the whole frames up to the first length that is
// out of range or runs past the end, and the bytes left after them.
func splitFrames(b []byte) (frames [][]byte, rest int) {
	for len(b) >= wire.CacheLineSize {
		l := binary.LittleEndian.Uint32(b[20:24])
		if l > wire.MaxPayload {
			break
		}
		n := wire.LinesFor(int(l)) * wire.CacheLineSize
		if n > len(b) {
			break
		}
		frames = append(frames, b[:n])
		b = b[n:]
	}
	return frames, len(b)
}

// unstamped clears the header bits a NIC queue may stamp on a frame it
// admits (flags 0xC0 and the occupancy byte), so an injected frame compares
// equal to the bytes it was cut from.
func unstamped(frame []byte) string {
	c := append([]byte(nil), frame...)
	c[3] &^= wire.FlagCongested | wire.FlagConnMiss
	c[36] = 0
	return string(c)
}

// FuzzBridgeDatagram feeds arbitrary peer datagrams to a bridge's receive
// side. Whatever the bytes claim, splitting must not panic; every frame
// delivered to a ring is a whole frame cut at a frame boundary of the
// datagram; a datagram with bytes left over that cannot be a frame counts an
// inject error; and every pooled buffer is repaid once the rings drain.
func FuzzBridgeDatagram(f *testing.F) {
	frame := func(kind wire.Kind, rpc uint64, size int) []byte {
		b, err := wire.MarshalAppend(nil, &wire.Message{
			Header:  wire.Header{Kind: kind, ConnID: 1, RPCID: rpc, SrcAddr: 1, DstAddr: 100},
			Payload: bytes.Repeat([]byte{'p'}, size),
		})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	batch := bytes.Join([][]byte{frame(wire.KindRequest, 1, 8), frame(wire.KindResponse, 2, 300), frame(wire.KindRequest, 3, 0)}, nil)
	f.Add(batch)
	f.Add(batch[:len(batch)-64]) // the last frame cut short
	f.Add(append(append([]byte(nil), batch...), 1, 2, 3))
	huge := frame(wire.KindRequest, 4, 8)
	binary.LittleEndian.PutUint32(huge[20:], wire.MaxPayload+1)
	f.Add(append(frame(wire.KindRequest, 5, 8), huge...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// A fresh fabric per input: NIC connection state must not carry
		// over and make coverage depend on input order.
		fab := fabric.NewFabric()
		nic, err := fab.CreateNIC(100, 1, 1024)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBridge(fab, newMemNet(1, 1).conn("a"), NewRouteTable())
		defer b.Close()
		b.onFrame(data, "peer")

		whole, rest := splitFrames(data)
		want := make(map[string]bool, len(whole))
		for _, w := range whole {
			want[unstamped(w)] = true
		}
		if rest > 0 && b.InjectErr.Load() == 0 {
			t.Fatalf("%d trailing bytes dropped uncounted", rest)
		}
		fl, _ := nic.Flow(0)
		delivered := 0
		for got, ok := fl.TryRecv(); ok; got, ok = fl.TryRecv() {
			if m, n, err := wire.Unmarshal(got); err != nil || n != len(got) || m.DstAddr != 100 {
				t.Fatalf("delivered frame of %d bytes: consumed %d, err %v", len(got), n, err)
			}
			if !want[unstamped(got)] {
				t.Fatalf("delivered frame % x is not a whole frame of the datagram", got[:wire.HeaderSize])
			}
			fl.Buffers().Put(got)
			delivered++
		}
		if uint64(delivered) > b.Injected.Load() || b.Injected.Load() > uint64(len(whole)) {
			t.Fatalf("%d delivered, %d injected, %d whole frames", delivered, b.Injected.Load(), len(whole))
		}
		var gets, puts uint64
		for _, p := range []*ringbuf.BufPool{fab.Buffers(), fl.Buffers()} {
			g, p := p.Loans()
			gets += g
			puts += p
		}
		if gets != puts {
			t.Fatalf("pool loans unbalanced: gets=%d puts=%d", gets, puts)
		}
	})
}
