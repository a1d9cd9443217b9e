package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
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
