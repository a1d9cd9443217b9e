package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"dagger/internal/microsim"
	"dagger/internal/workload"
)

// Inputs are made from the --seed argument alone: the same seed yields the
// same payload bytes, payload sizes and key/operation sequences. Each caller
// draws from its own stream, derived from the seed and the caller index.

// splitmix64 is a cheap, well-mixed 64-bit hash used to derive payload and
// value bytes from (seed, id) without keeping generated data around.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// callerSeed derives an independent stream seed for one caller.
func callerSeed(seed int64, caller int) int64 {
	return int64(splitmix64(uint64(seed)*0x100 + uint64(caller)))
}

// patternLen is the size of the seeded byte pattern payloads are cut
// from; it covers the largest payload plus the largest per-request offset.
const patternLen = maxPayload + 256

// maxPayload is the largest payload the udp-mix size model draws.
const maxPayload = 8192

// newPattern returns the seed's byte pattern.
func newPattern(seed int64) []byte {
	p := make([]byte, patternLen)
	for i := 0; i < len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], splitmix64(uint64(seed)^uint64(i)))
	}
	return p
}

// fillEcho writes request id's payload into dst (whose length is the
// payload size, at least 8): the id, then a slice of the seed pattern at an
// id-dependent offset, so every request's bytes differ.
func fillEcho(dst, pattern []byte, id uint64) {
	binary.LittleEndian.PutUint64(dst, id)
	off := int(splitmix64(id) & 0xFF)
	copy(dst[8:], pattern[off:off+len(dst)-8])
}

// echoID reads the request id a request payload carries.
func echoID(p []byte) (uint64, bool) {
	if len(p) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(p), true
}

// checkEcho reports whether resp is a byte-equal echo of req.
func checkEcho(req, resp []byte) bool { return bytes.Equal(req, resp) }

// rpcSize is one udp-mix call's request and response payload sizes.
type rpcSize struct{ req, rsp int }

// sizeSeq returns n udp-mix (request, response) size pairs. They are the
// sizes of the RPCs of a seeded microsim.SocialNetwork() run, the Fig. 4
// model that experiments.RunFig4 checks against the paper (75% of requests
// under 512 B, over 90% of responses at most 64 B, a tail to 8 KB). Each
// pair keeps one RPC's request and response together; the pairs are taken
// tier by tier in graph order and shuffled, so the sequence depends on the
// seed alone.
func sizeSeq(seed int64, n int) []rpcSize {
	g := microsim.SocialNetwork()
	// A request visits about 7 tiers, so n/4 requests yield more than n RPCs.
	res := microsim.Run(microsim.RunConfig{Graph: g, QPS: 200, Requests: n/4 + 16, Seed: seed})
	var out []rpcSize
	for _, t := range g.Tiers {
		req, rsp := res.ReqSizes[t.Name], res.RspSizes[t.Name]
		for i := range req {
			out = append(out, rpcSize{req: int(req[i]), rsp: int(rsp[i])})
		}
	}
	if len(out) < n {
		panic(fmt.Sprintf("sizeSeq: the model run gave %d RPCs, want %d", len(out), n))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:n]
}

// A udp-mix request asks for a response of a given size: it carries its id
// and the response size, then a slice of the seed pattern. The response is
// the slice of the pattern at an id-dependent offset, so each request's
// expected reply is known without storing it.
const replyHeader = 12

// fillRequest writes request id's payload into dst (at least replyHeader
// bytes), asking for a response of rsp bytes.
func fillRequest(dst, pattern []byte, id uint64, rsp int) {
	fillEcho(dst, pattern, id)
	binary.LittleEndian.PutUint32(dst[8:], uint32(rsp))
}

// replyFor returns the response to request id of rsp bytes: a read-only
// slice of the pattern.
func replyFor(pattern []byte, id uint64, rsp int) []byte {
	off := int(splitmix64(id^0x5EED) & 0xFF)
	return pattern[off : off+rsp]
}

// reply answers a request made by fillRequest; ok is false for a malformed
// one.
func reply(pattern, req []byte) (resp []byte, ok bool) {
	if len(req) < replyHeader {
		return nil, false
	}
	rsp := int(binary.LittleEndian.Uint32(req[8:]))
	if rsp > maxPayload {
		return nil, false
	}
	return replyFor(pattern, binary.LittleEndian.Uint64(req), rsp), true
}

// kv-mica shape: the paper's "small" dataset (16 B keys, 32 B values), Zipf
// 0.99 popularity and the write-intensive 50% GET / 50% SET mix, over a
// keyspace of kvRecords prepopulated records.
const (
	kvRecords = 200_000
	kvTheta   = 0.99
)

var kvDataset = workload.Dataset{
	Name:      workload.Small.Name,
	KeySize:   workload.Small.KeySize,
	ValueSize: workload.Small.ValueSize,
	Records:   kvRecords,
}

// kvSetBit marks a SET in a kvOp; the low bits hold the record id.
const kvSetBit = 1 << 31

// kvOp is one generated operation: record id, with kvSetBit for a SET.
type kvOp uint32

func (o kvOp) rec() uint64 { return uint64(o &^ kvSetBit) }
func (o kvOp) set() bool   { return o&kvSetBit != 0 }

// kvOpSeq returns n operations drawn with the given seed.
func kvOpSeq(seed int64, n int) []kvOp {
	rng := rand.New(rand.NewSource(seed))
	z := workload.NewZipf(rng, kvDataset.Records, kvTheta)
	out := make([]kvOp, n)
	for i := range out {
		op := kvOp(z.Next())
		if rng.Float64() >= workload.WriteIntensive.GetPct {
			op |= kvSetBit
		}
		out[i] = op
	}
	return out
}

// kvKey writes record rec's key into dst.
func kvKey(dst []byte, rec uint64) []byte { return workload.KeyForRecord(kvDataset, rec, dst) }

// Values are self-validating: record id, version, then 16 tag bytes derived
// from both. A version packs the writer (0 for prepopulation, caller+1 for
// callers) above that writer's sequence number.
const versionWriterShift = 48

func kvVersion(writer int, seq uint64) uint64 { return uint64(writer)<<versionWriterShift | seq }

// kvValue writes the value for (rec, version) into dst (kvDataset.ValueSize
// bytes).
func kvValue(dst []byte, rec, version uint64) []byte {
	dst = dst[:kvDataset.ValueSize]
	binary.LittleEndian.PutUint64(dst[0:], rec)
	binary.LittleEndian.PutUint64(dst[8:], version)
	binary.LittleEndian.PutUint64(dst[16:], splitmix64(rec^splitmix64(version)))
	binary.LittleEndian.PutUint64(dst[24:], splitmix64(rec+splitmix64(version^0xDA66)))
	return dst
}

// checkKVValue verifies a value a GET returned for record rec: it must be a
// well-formed value generated for rec, at a version its writer has issued
// (issued(w) returns writer w's highest issued sequence number).
func checkKVValue(val []byte, rec uint64, writers int, issued func(int) uint64) error {
	if len(val) != kvDataset.ValueSize {
		return fmt.Errorf("value for record %d has %d bytes, want %d", rec, len(val), kvDataset.ValueSize)
	}
	if got := binary.LittleEndian.Uint64(val[0:]); got != rec {
		return fmt.Errorf("GET of record %d returned a value of record %d", rec, got)
	}
	version := binary.LittleEndian.Uint64(val[8:])
	var want [32]byte
	if !bytes.Equal(val, kvValue(want[:], rec, version)) {
		return fmt.Errorf("value for record %d version %#x fails its tag", rec, version)
	}
	w, seq := int(version>>versionWriterShift), version&(1<<versionWriterShift-1)
	if w > writers || (w == 0 && seq != 0) || (w > 0 && seq > issued(w)) {
		return fmt.Errorf("value for record %d carries version %#x that was never written", rec, version)
	}
	return nil
}
