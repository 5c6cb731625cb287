package fec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"rapidware/internal/packet"
	"rapidware/internal/race"
)

// receiveBuf copies frame to the front of a receive-sized pooled buffer, the
// way the engine's reader hands a datagram's frame to a session chain.
func receiveBuf(frame []byte) *packet.Buf {
	b := packet.GetBuf(packet.MaxDatagram)
	b.B = b.B[:copy(b.B, frame)]
	return b
}

func mustFrame(tb testing.TB, p *packet.Packet) []byte {
	tb.Helper()
	f, err := packet.Marshal(p)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// diffCodes are the codes the differential stream mixes.
var diffCodes = []Params{{K: 4, N: 6}, {K: 8, N: 12}, {K: 2, N: 3}, {K: 1, N: 2}, {K: 3, N: 3}}

// encodeGroup encodes one group of k random payloads of random sizes (so
// shares need padding) and stamps it with the given group and sequence base.
func encodeGroup(tb testing.TB, rng *rand.Rand, params Params, group uint32, seq uint64) []*packet.Packet {
	tb.Helper()
	coder, err := CoderFor(params)
	if err != nil {
		tb.Fatal(err)
	}
	enc := NewBlockEncoder(coder, uint32(1+rng.Intn(3)))
	var shares []*packet.Packet
	for i := 0; i < params.K; i++ {
		payload := make([]byte, 1+rng.Intn(300))
		rng.Read(payload)
		out, err := enc.Add(payload)
		if err != nil {
			tb.Fatal(err)
		}
		if out != nil {
			shares = out
		}
	}
	for i, p := range shares {
		p.Group, p.Seq = group, seq+uint64(i)
	}
	return shares
}

// diffStream builds a seeded share sequence covering everything FrameDecoder
// must agree with BlockDecoder on: erasure bursts (some past what the code can
// repair), duplicates, reordering within a group and across groups, shares
// whose code disagrees with their group's, out-of-range and wrong-kind
// indices, invalid codes, blockless frames, and group tails held back past
// the 64-group ring so their groups are evicted first.
func diffStream(tb testing.TB, rng *rand.Rand, groups int) []*packet.Packet {
	var out []*packet.Packet
	type deferred struct {
		due    int
		shares []*packet.Packet
	}
	var later []deferred
	for g := 0; g < groups; g++ {
		params := diffCodes[rng.Intn(len(diffCodes))]
		shares := encodeGroup(tb, rng, params, uint32(g), uint64(g)*16)
		n := len(shares)
		if rng.Intn(2) == 0 { // an erasure burst, at most one past repairable
			at, burst := rng.Intn(n), 1+rng.Intn(params.Parity()+1)
			shares = append(shares[:at:at], shares[min(n, at+burst):]...)
		}
		if rng.Intn(3) == 0 {
			rng.Shuffle(len(shares), func(i, j int) { shares[i], shares[j] = shares[j], shares[i] })
		}
		// Hostile extras, each a copy of a real share with one field bent.
		extra := func(bend func(p *packet.Packet)) {
			if len(shares) == 0 {
				return
			}
			c := shares[rng.Intn(len(shares))].Clone()
			bend(c)
			at := rng.Intn(len(shares) + 1)
			shares = append(shares[:at:at], append([]*packet.Packet{c}, shares[at:]...)...)
		}
		if rng.Intn(5) == 0 {
			extra(func(*packet.Packet) {}) // duplicate
		}
		if rng.Intn(10) == 0 {
			extra(func(p *packet.Packet) { // another code's coordinates
				o := diffCodes[rng.Intn(len(diffCodes))]
				p.K, p.N, p.Index = uint8(o.K), uint8(o.N), uint8(min(int(p.Index), o.N-1))
				p.Kind = packet.KindParity
				if int(p.Index) < o.K {
					p.Kind = packet.KindData
				}
			})
		}
		if rng.Intn(10) == 0 {
			extra(func(p *packet.Packet) { p.Index = p.N + uint8(rng.Intn(8)) })
		}
		if rng.Intn(20) == 0 {
			extra(func(p *packet.Packet) { p.Kind = packet.KindData + packet.KindParity - p.Kind })
		}
		if rng.Intn(20) == 0 {
			extra(func(p *packet.Packet) { p.K = p.N + 1 })
		}
		if rng.Intn(20) == 0 {
			extra(func(p *packet.Packet) { p.K, p.N, p.Index = 0, 0, 0 })
		}
		split := rng.Intn(len(shares) + 1)
		out = append(out, shares[:split]...)
		switch r := rng.Intn(20); {
		case r == 0:
			later = append(later, deferred{due: g + 70, shares: shares[split:]})
		case r < 7:
			later = append(later, deferred{due: g + 1 + rng.Intn(2), shares: shares[split:]})
		default:
			out = append(out, shares[split:]...)
		}
		kept := later[:0]
		for _, d := range later {
			if d.due <= g {
				out = append(out, d.shares...)
			} else {
				kept = append(kept, d)
			}
		}
		later = kept
	}
	for _, d := range later {
		out = append(out, d.shares...)
	}
	return out
}

var decodeErrs = []error{ErrBadParams, ErrShareIndex, ErrGroupMismatch, ErrDuplicate, ErrUndecodable}

// TestFrameDecoderMatchesBlockDecoder feeds the same seeded share sequences to
// FrameDecoder and to BlockDecoder, the reference, and requires the same
// frames delivered in the same order, byte for byte, the same refusals and
// the same repair count.
func TestFrameDecoderMatchesBlockDecoder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stream := diffStream(t, rng, 400)
		ref, dec := NewBlockDecoder(0), NewFrameDecoder(0)
		var refused, repairs int
		for i, p := range stream {
			want, refErr := ref.Add(p.Clone())
			var got []*packet.Buf
			err := dec.Add(receiveBuf(mustFrame(t, p)), func(b *packet.Buf) { got = append(got, b) })
			for _, sentinel := range decodeErrs {
				if errors.Is(err, sentinel) != errors.Is(refErr, sentinel) {
					t.Fatalf("seed %d share %d (%v): error %v, reference %v", seed, i, p, err, refErr)
				}
			}
			if (err != nil) != (refErr != nil) {
				t.Fatalf("seed %d share %d (%v): error %v, reference %v", seed, i, p, err, refErr)
			}
			if err != nil {
				refused++
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d share %d (%v): delivered %d frames, reference %d", seed, i, p, len(got), len(want))
			}
			for j, b := range got {
				if !bytes.Equal(b.B, mustFrame(t, want[j])) {
					t.Fatalf("seed %d share %d: frame %d differs from the reference's %v", seed, i, j, want[j])
				}
				if b.Refs() != 1 {
					t.Fatalf("seed %d share %d: delivered frame holds %d references", seed, i, b.Refs())
				}
				b.Release()
			}
			if held := dec.Held(); held > 64*12 {
				t.Fatalf("seed %d share %d: %d share buffers held", seed, i, held)
			}
		}
		if dec.Recovered() != ref.Recovered() {
			t.Fatalf("seed %d: recovered %d, reference %d", seed, dec.Recovered(), ref.Recovered())
		}
		repairs += int(dec.Recovered())
		t.Logf("seed %d: %d shares, %d refused, %d repaired", seed, len(stream), refused, repairs)
		if refused == 0 || repairs == 0 {
			t.Fatalf("seed %d: %d refusals and %d repairs: the stream exercises too little", seed, refused, repairs)
		}
		dec.Discard()
		if dec.Held() != 0 {
			t.Fatalf("seed %d: %d share buffers held after Discard", seed, dec.Held())
		}
	}
}

func TestFrameDecoderDiscardStopsRepairButKeepsHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	group := encodeGroup(t, rng, Params{K: 4, N: 6}, 9, 0)
	dec := NewFrameDecoder(0)
	var got []*packet.Buf
	emit := func(b *packet.Buf) { got = append(got, b) }
	for _, p := range group[:2] {
		if err := dec.Add(receiveBuf(mustFrame(t, p)), emit); err != nil {
			t.Fatal(err)
		}
	}
	if dec.Held() != 2 {
		t.Fatalf("held %d share buffers, want 2", dec.Held())
	}
	dec.Discard()
	if dec.Held() != 0 {
		t.Fatalf("held %d share buffers after Discard, want 0", dec.Held())
	}
	// The rest of the group: the data still flows once, nothing is repaired,
	// and a share seen before Discard is still a duplicate.
	for _, p := range group[3:] {
		if err := dec.Add(receiveBuf(mustFrame(t, p)), emit); err != nil {
			t.Fatal(err)
		}
	}
	if err := dec.Add(receiveBuf(mustFrame(t, group[0])), emit); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("re-sent share: err = %v, want ErrDuplicate", err)
	}
	if len(got) != 3 || dec.Recovered() != 0 || dec.Held() != 0 {
		t.Fatalf("delivered %d, recovered %d, held %d; want 3, 0, 0", len(got), dec.Recovered(), dec.Held())
	}
	for _, b := range got {
		b.Release()
	}
}

// TestFrameDecoderUndecodableGroup hands the decoder parity that does not
// belong to its data — bytes whose repaired row declares a length past its
// share, or shares too short to hold a length at all. The share that
// completed the group is refused, and the group's data is still delivered.
func TestFrameDecoderUndecodableGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	wrong := encodeGroup(t, rng, Params{K: 2, N: 3}, 1, 0)
	bogus := wrong[2].Clone()
	for i := range bogus.Payload {
		bogus.Payload[i] = 0xff
	}
	short := encodeGroup(t, rng, Params{K: 2, N: 4}, 2, 0)
	for _, p := range short[2:] {
		p.Payload = p.Payload[:1]
	}
	for name, shares := range map[string][]*packet.Packet{
		"wrong parity": {wrong[0], bogus, wrong[1]},
		"short parity": {short[2], short[3], short[0], short[1]},
	} {
		t.Run(name, func(t *testing.T) {
			dec := NewFrameDecoder(0)
			var got []*packet.Buf
			emit := func(b *packet.Buf) { got = append(got, b) }
			for i, p := range shares {
				err := dec.Add(receiveBuf(mustFrame(t, p)), emit)
				if completes := i == 1; completes != errors.Is(err, ErrUndecodable) || (!completes && err != nil) {
					t.Fatalf("share %d: err = %v", i, err)
				}
			}
			if len(got) != 2 || dec.Recovered() != 0 || dec.Held() != 0 {
				t.Fatalf("delivered %d, recovered %d, held %d; want 2, 0, 0", len(got), dec.Recovered(), dec.Held())
			}
			for _, b := range got {
				b.Release()
			}
		})
	}
}

// decodeFixture replays pre-encoded (12,8) groups of 1200-byte payloads — the
// fec-transcode uplink — into a FrameDecoder, one group per step, each share
// in a receive-sized buffer and each group under a fresh group number. Group
// i loses i mod 5 data shares, so steps cycle through clean groups and
// repairs of one to four rows.
type decodeFixture struct {
	dec    *FrameDecoder
	groups [][][]byte // surviving frames per group
	next   uint32
	step   int
}

func newDecodeFixture(tb testing.TB) *decodeFixture {
	params := Params{K: 8, N: 12}
	coder, err := NewCoder(params)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	f := &decodeFixture{dec: NewFrameDecoder(0)}
	enc := NewBlockEncoder(coder, 1)
	for i := 0; i < 20; i++ {
		var shares []*packet.Packet
		for j := 0; j < params.K; j++ {
			payload := make([]byte, 1200)
			rng.Read(payload)
			if out, err := enc.Add(payload); err != nil {
				tb.Fatal(err)
			} else if out != nil {
				shares = out
			}
		}
		lost := i % (params.Parity() + 1)
		var frames [][]byte
		for j, p := range shares {
			if j >= i%params.K && j < i%params.K+lost {
				continue
			}
			frames = append(frames, mustFrame(tb, p))
		}
		f.groups = append(f.groups, frames)
	}
	return f
}

// run feeds the next group.
func (f *decodeFixture) run(tb testing.TB) {
	for _, frame := range f.groups[f.step%len(f.groups)] {
		b := receiveBuf(frame)
		binary.BigEndian.PutUint32(b.B[16:], f.next)
		if err := f.dec.Add(b, (*packet.Buf).Release); err != nil {
			tb.Fatal(err)
		}
	}
	f.next++
	f.step++
}

// BenchmarkFECFrameDecode measures the proxy decoder's cost per (12,8) group,
// share copies and repairs included. TestFECFrameDecodeAllocs holds it
// allocation-free.
func BenchmarkFECFrameDecode(b *testing.B) {
	f := newDecodeFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.run(b)
	}
}

func TestFECFrameDecodeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	f := newDecodeFixture(t)
	for i := 0; i < 100; i++ { // fill the ring and the reused buffers
		f.run(t)
	}
	if n := testing.AllocsPerRun(500, func() { f.run(t) }); n != 0 {
		t.Fatalf("%v allocs/group, want 0", n)
	}
	if f.dec.Recovered() == 0 {
		t.Fatal("the fixture repaired nothing")
	}
}

// fuzzOpSize is the fixed part of one FuzzFrameDecoder operation: group,
// index, k, n, kind and payload length, followed by that many payload bytes.
const fuzzOpSize = 6

// fuzzOps encodes shares in FuzzFrameDecoder's operation format.
func fuzzOps(shares ...*packet.Packet) []byte {
	var ops []byte
	for _, p := range shares {
		ops = append(ops, byte(p.Group), p.Index, p.K, p.N, byte(p.Kind-packet.KindData), byte(len(p.Payload)))
		ops = append(ops, p.Payload...)
	}
	return ops
}

// FuzzFrameDecoder drives a small-ring decoder with arbitrary sequences of
// header-valid shares. It must never panic, must emit or release every input
// exactly once and never emit a refused one, must emit only whole data frames
// it holds no other reference to, and must bound and, on Discard, drop every
// share buffer it holds.
func FuzzFrameDecoder(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	coder, _ := CoderFor(Params{K: 4, N: 6})
	enc := NewBlockEncoder(coder, 1)
	var group []*packet.Packet
	for i := 0; i < 4; i++ {
		payload := make([]byte, 8+rng.Intn(32))
		rng.Read(payload)
		group, _ = enc.Add(payload)
	}
	f.Add(fuzzOps(group...))
	f.Add(fuzzOps(group[0], group[2], group[4], group[5], group[1]))
	f.Add(fuzzOps(group[5], group[5], group[3], group[4], group[0]))
	f.Add(fuzzOps(group[4], group[5], group[0], group[1]))
	f.Add([]byte{0, 2, 2, 4, 1, 1, 0xff, 0, 3, 2, 4, 1, 1, 0xff}) // 1-byte parity
	f.Fuzz(func(t *testing.T, ops []byte) {
		const ring = 4
		dec := NewFrameDecoder(ring)
		for len(ops) >= fuzzOpSize {
			p := &packet.Packet{
				Group: uint32(ops[0] % 8), Index: ops[1], K: ops[2], N: ops[3],
				Kind: packet.KindData + packet.Kind(ops[4]%uint8(packet.KindNack)),
			}
			plen := min(int(ops[5]), len(ops)-fuzzOpSize)
			p.Payload, ops = ops[fuzzOpSize:fuzzOpSize+plen], ops[fuzzOpSize+plen:]
			in := receiveBuf(mustFrame(t, p))
			in.Retain(1) // observe it after the decoder is done with it
			var out []*packet.Buf
			err := dec.Add(in, func(b *packet.Buf) { out = append(out, b) })
			self := 0
			for _, b := range out {
				if b == in {
					self++
					continue
				}
				if b.Refs() != 1 {
					t.Fatalf("%v: emitted frame holds %d references", p, b.Refs())
				}
				if err := packet.ValidateFrame(b.B); err != nil || packet.FrameKind(b.B) != packet.KindData {
					t.Fatalf("%v: emitted a frame that is not whole data (%v)", p, err)
				}
			}
			if self > 1 || (err != nil && self != 0) {
				t.Fatalf("%v: input emitted %d times with error %v", p, self, err)
			}
			if in.Refs() != 1+self {
				t.Fatalf("%v: input holds %d references after Add, want %d", p, in.Refs(), 1+self)
			}
			for _, b := range out {
				b.Release()
			}
			in.Release()
			if held := dec.Held(); held > ring*MaxShares {
				t.Fatalf("%d share buffers held", held)
			}
		}
		dec.Discard()
		if dec.Held() != 0 {
			t.Fatalf("%d share buffers held after Discard", dec.Held())
		}
	})
}
