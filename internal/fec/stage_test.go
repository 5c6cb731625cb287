package fec

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rapidware/internal/endpoint"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
	"rapidware/internal/race"
)

// pumpPackets runs a chain of [source] + middle + [sink] where the source
// emits the given payloads as data packets and the sink collects everything.
func pumpPackets(t *testing.T, middle []filter.Filter, payloads [][]byte) []*packet.Packet {
	t.Helper()
	i := 0
	src := endpoint.NewPacketSource("src", func() (*packet.Packet, error) {
		if i >= len(payloads) {
			return nil, io.EOF
		}
		p := &packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: payloads[i]}
		i++
		return p, nil
	})
	var mu sync.Mutex
	var got []*packet.Packet
	sink := endpoint.NewPacketSink("sink", func(p *packet.Packet) error {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
		return nil
	})
	chain := filter.NewChain("test")
	chain.Append(src)
	for _, f := range middle {
		chain.Append(f)
	}
	chain.Append(sink)
	if err := chain.Start(); err != nil {
		t.Fatal(err)
	}
	if err := chain.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return got
}

func makePayloads(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("%0*d", size, i))
	}
	return out
}

func TestNewEncodeStageRejectsBadParams(t *testing.T) {
	if _, err := NewEncodeStage("", Params{K: 5, N: 2}, 1, nil); err == nil {
		t.Fatal("expected error for invalid params")
	}
}

func TestEncodeStageEmitsParity(t *testing.T) {
	enc, err := NewEncodeStage("", Params{K: 4, N: 6}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Name() == "" {
		t.Fatal("default name empty")
	}
	payloads := makePayloads(8, 32) // exactly two FEC groups
	got := pumpPackets(t, []filter.Filter{enc}, payloads)
	if len(got) != 12 { // 2 groups × (4 data + 2 parity): 1.5x overhead
		t.Fatalf("got %d packets, want 12", len(got))
	}
	var data, parity int
	for _, p := range got {
		switch p.Kind {
		case packet.KindData:
			data++
		case packet.KindParity:
			parity++
		}
	}
	if data != 8 || parity != 4 {
		t.Fatalf("data=%d parity=%d, want 8/4", data, parity)
	}
	if enc.Params() != (Params{K: 4, N: 6}) {
		t.Fatalf("Params = %v", enc.Params())
	}
}

func TestEncodeStageFlushesPartialGroupAtEOF(t *testing.T) {
	enc, _ := NewEncodeStage("", Params{K: 4, N: 6}, 1, nil)
	payloads := makePayloads(6, 16) // one full group + 2 leftover
	got := pumpPackets(t, []filter.Filter{enc}, payloads)
	// 6 data (4 from the full group, 2 flushed) + 2 parity.
	if len(got) != 8 {
		t.Fatalf("got %d packets, want 8", len(got))
	}
	var data int
	for _, p := range got {
		if p.Kind == packet.KindData {
			data++
		}
	}
	if data != 6 {
		t.Fatalf("data packets = %d, want 6 (no audio lost at EOF)", data)
	}
}

func TestEncodeStagePassesNonDataThrough(t *testing.T) {
	enc, _ := NewEncodeStage("", Params{K: 2, N: 3}, 1, nil)
	i := 0
	src := endpoint.NewPacketSource("src", func() (*packet.Packet, error) {
		if i >= 1 {
			return nil, io.EOF
		}
		i++
		return &packet.Packet{Kind: packet.KindControl, Payload: []byte("marker")}, nil
	})
	var got []*packet.Packet
	var mu sync.Mutex
	sink := endpoint.NewPacketSink("sink", func(p *packet.Packet) error {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
		return nil
	})
	chain := filter.NewChain("ctrl")
	chain.Append(src)
	chain.Append(enc)
	chain.Append(sink)
	chain.Start()
	if err := chain.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Kind != packet.KindControl {
		t.Fatalf("control packet not passed through: %v", got)
	}
}

func TestEncodeDecodeChainNoLoss(t *testing.T) {
	enc, _ := NewEncodeStage("", Params{K: 4, N: 6}, 1, nil)
	var repairs atomic.Uint64
	dec := NewDecodeStage("", &repairs)
	payloads := makePayloads(40, 20)
	got := pumpPackets(t, []filter.Filter{enc, dec}, payloads)
	if len(got) != len(payloads) {
		t.Fatalf("got %d packets, want %d", len(got), len(payloads))
	}
	for i, p := range got {
		if string(p.Payload) != string(payloads[i]) {
			t.Fatalf("packet %d corrupted or reordered", i)
		}
		if p.Kind != packet.KindData {
			t.Fatalf("non-data packet leaked downstream: %v", p)
		}
	}
	if repairs.Load() != 0 {
		t.Fatalf("repaired %d packets of a lossless stream", repairs.Load())
	}
}

func TestEncodeLossyDecodeRecovers(t *testing.T) {
	// Insert a deterministic lossy hop between encoder and decoder that drops
	// one packet per FEC group; the decoder must reconstruct everything.
	enc, _ := NewEncodeStage("", Params{K: 4, N: 6}, 1, nil)
	var repairs atomic.Uint64
	dec := NewDecodeStage("", &repairs)
	drop := filter.NewFrame("drop-one-per-group", func(b *packet.Buf, emit func(*packet.Buf)) error {
		if _, index, _, n := packet.FrameBlock(b.B); n > 0 && index == 1 {
			b.Release() // drop data packet 1 of every group
			return nil
		}
		emit(b)
		return nil
	}, nil)

	payloads := makePayloads(40, 24)
	got := pumpPackets(t, []filter.Filter{enc, drop, dec}, payloads)
	if len(got) != len(payloads) {
		t.Fatalf("delivered %d packets, want %d", len(got), len(payloads))
	}
	seen := map[string]int{}
	for _, p := range got {
		seen[string(p.Payload)]++
	}
	for _, pl := range payloads {
		if seen[string(pl)] != 1 {
			t.Fatalf("payload %q delivered %d times", pl, seen[string(pl)])
		}
	}
	if rc := repairs.Load(); rc != 10 { // one reconstruction per group of 4, 40/4 groups
		t.Fatalf("reconstructed = %d, want 10", rc)
	}
}

func TestDecodeStageWithoutFECPassesThrough(t *testing.T) {
	dec := NewDecodeStage("", nil)
	payloads := makePayloads(10, 8)
	got := pumpPackets(t, []filter.Filter{dec}, payloads)
	if len(got) != len(payloads) {
		t.Fatalf("got %d, want %d", len(got), len(payloads))
	}
}

// encodeFrames encodes groups of k payloads of the given size under code
// params and returns each group's n marshaled shares.
func encodeFrames(tb testing.TB, params Params, groups, size int, seed int64) [][][]byte {
	tb.Helper()
	coder, err := CoderFor(params)
	if err != nil {
		tb.Fatal(err)
	}
	enc := NewBlockEncoder(coder, 1)
	rng := rand.New(rand.NewSource(seed))
	var out [][][]byte
	for len(out) < groups {
		payload := make([]byte, size)
		rng.Read(payload)
		shares, err := enc.Add(payload)
		if err != nil {
			tb.Fatal(err)
		}
		if shares == nil {
			continue
		}
		frames := make([][]byte, len(shares))
		for i, p := range shares {
			if frames[i], err = packet.Marshal(p); err != nil {
				tb.Fatal(err)
			}
		}
		out = append(out, frames)
	}
	return out
}

// transcodeFixture is the fec-transcode workload's chain in-process:
// fec-decode,fec-encode=6/4 on a FrameChain, fed (12,8) groups of 1200-byte
// payloads off a seeded bursty channel (~5% loss, mean burst 2), one group per
// step under a fresh group number, each share in a receive-sized buffer.
type transcodeFixture struct {
	fc      *filter.FrameChain
	repairs atomic.Uint64
	drops   int
	groups  [][][]byte
	erased  [][]bool // per step mod len: which shares the channel erased
	next    uint32
	out     int
}

func newTranscodeFixture(tb testing.TB) *transcodeFixture {
	tb.Helper()
	uplink := Params{K: 8, N: 12}
	f := &transcodeFixture{groups: encodeFrames(tb, uplink, 16, 1200, 1)}
	dec := NewDecodeStage("", &f.repairs)
	dec.OnDrop(func() { f.drops++ })
	enc, err := NewEncodeStage("", Params{K: 4, N: 6}, 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	f.fc = filter.NewFrameChain(func(b *packet.Buf) { f.out++; b.Release() })
	if err := f.fc.SetInterior([]filter.Filter{dec, enc}); err != nil {
		tb.Fatal(err)
	}
	// A two-state channel: good -> bad at 1/38, bad -> good at 1/2, and
	// everything sent in the bad state is lost.
	rng := rand.New(rand.NewSource(1))
	bad := false
	for i := 0; i < 256; i++ {
		erased := make([]bool, uplink.N)
		for j := range erased {
			if bad {
				bad = rng.Intn(2) != 0
			} else {
				bad = rng.Intn(38) == 0
			}
			erased[j] = bad
		}
		f.erased = append(f.erased, erased)
	}
	return f
}

// step sends the next group through the chain.
func (f *transcodeFixture) step(tb testing.TB) {
	erased := f.erased[int(f.next)%len(f.erased)]
	for i, frame := range f.groups[int(f.next)%len(f.groups)] {
		if erased[i] {
			continue
		}
		b := receiveBuf(frame)
		binary.BigEndian.PutUint32(b.B[16:], f.next)
		if err := f.fc.Process(b); err != nil {
			tb.Fatal(err)
		}
	}
	f.next++
}

// BenchmarkFECTranscodeChain measures fec-decode,fec-encode=6/4 per (12,8)
// uplink group. TestFECTranscodeChainAllocs holds it allocation-free.
func BenchmarkFECTranscodeChain(b *testing.B) {
	f := newTranscodeFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.step(b)
	}
}

func TestFECTranscodeChainAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	f := newTranscodeFixture(t)
	for i := 0; i < 256; i++ { // one pass of the channel: fills the ring and the reused buffers
		f.step(t)
	}
	if n := testing.AllocsPerRun(512, func() { f.step(t) }); n != 0 {
		t.Fatalf("%v allocs/group, want 0", n)
	}
	if repaired := f.repairs.Load(); repaired == 0 || f.drops != 0 || f.out == 0 {
		t.Fatalf("repaired %d, dropped %d, delivered %d: want repairs, no drops, output", repaired, f.drops, f.out)
	}
}

// TestDecoderHoldsNoSharesAfterLeaving takes a decoder out of a live chain
// mid-group, by a splice and by closing the chain: the shares it held for a
// repair are released, and nothing is emitted for them.
func TestDecoderHoldsNoSharesAfterLeaving(t *testing.T) {
	group := encodeFrames(t, Params{K: 4, N: 6}, 1, 64, 2)[0]
	for _, leave := range []string{"splice-out", "close"} {
		t.Run(leave, func(t *testing.T) {
			stage, dec := newDecodeStage("", nil)
			enc, err := NewEncodeStage("", Params{K: 2, N: 3}, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			delivered := 0
			fc := filter.NewFrameChain(func(b *packet.Buf) { delivered++; b.Release() })
			if err := fc.SetInterior([]filter.Filter{stage, enc}); err != nil {
				t.Fatal(err)
			}
			for _, frame := range [][]byte{group[0], group[4], group[2]} {
				if err := fc.Process(receiveBuf(frame)); err != nil {
					t.Fatal(err)
				}
			}
			if held := dec.Held(); held != 3 {
				t.Fatalf("decoder holds %d shares mid-group, want 3", held)
			}
			if leave == "close" {
				err = fc.Close()
			} else {
				err = fc.SetInterior([]filter.Filter{enc})
			}
			if err != nil {
				t.Fatal(err)
			}
			if held := dec.Held(); held != 0 || stage.Running() {
				t.Fatalf("after %s: decoder holds %d shares, running %v", leave, held, stage.Running())
			}
			// 2 data frames in: one (3,2) group out, nothing flushed for the
			// decoder's held shares.
			if delivered != 3 {
				t.Fatalf("delivered %d frames, want 3", delivered)
			}
		})
	}
}

// TestDecoderRefusedShareIsCountedDrop sends a duplicate and a share whose
// code disagrees with its group's: each is a bad frame the stage's OnDrop
// hook counts, and the chain carries on.
func TestDecoderRefusedShareIsCountedDrop(t *testing.T) {
	group := encodeFrames(t, Params{K: 4, N: 6}, 1, 32, 3)[0]
	mismatched := append([]byte(nil), group[5]...)
	mismatched[21], mismatched[22] = 3, 6 // k=3: index 5 is still parity
	var repairs atomic.Uint64
	dec := NewDecodeStage("", &repairs)
	drops := 0
	dec.OnDrop(func() { drops++ })
	delivered := 0
	fc := filter.NewFrameChain(func(b *packet.Buf) { delivered++; b.Release() })
	if err := fc.SetInterior([]filter.Filter{dec}); err != nil {
		t.Fatal(err)
	}
	for _, frame := range [][]byte{group[0], group[0], mismatched, group[1], group[4], group[5]} {
		if err := fc.Process(receiveBuf(frame)); err != nil {
			t.Fatal(err)
		}
	}
	if drops != 2 || fc.Err() != nil {
		t.Fatalf("drops %d, chain error %v; want 2, nil", drops, fc.Err())
	}
	if repaired := repairs.Load(); repaired != 2 || delivered != 4 {
		t.Fatalf("repaired %d delivered %d, want 2/4", repaired, delivered)
	}
}

// TestAdaptiveStreamDecodableByStandardDecoder changes the code mid-stream
// the way the adaptation plane does — a fresh encoder with the new code is
// spliced in for the old one, and every encoder numbers its groups from the
// stream's one counter — and checks that the ordinary decoder delivers every
// payload exactly once through a hop that loses data frame 0 of every group,
// and adds each repair to the counter it was given. The last encoder returns
// to the first one's code: with groups numbered from 0 again, the decoder
// would refuse its shares as duplicates.
func TestAdaptiveStreamDecodableByStandardDecoder(t *testing.T) {
	var groups atomic.Uint32
	var repairs atomic.Uint64
	dec := NewDecodeStage("", &repairs)
	drops := 0
	dec.OnDrop(func() { drops++ })
	lossy := filter.NewFrame("drop-index-0", func(b *packet.Buf, emit func(*packet.Buf)) error {
		if _, index, _, _ := packet.FrameBlock(b.B); index == 0 && packet.FrameKind(b.B) == packet.KindData {
			b.Release()
			return nil
		}
		emit(b)
		return nil
	}, nil)
	seen := make(map[string]int)
	fc := filter.NewFrameChain(func(b *packet.Buf) {
		seen[string(b.B[packet.HeaderSize:])]++
		b.Release()
	})
	payloads := makePayloads(48, 12)
	for i, code := range []Params{{K: 4, N: 6}, {K: 4, N: 8}, {K: 4, N: 6}} {
		enc, err := NewEncodeStage("", code, 1, &groups)
		if err != nil {
			t.Fatal(err)
		}
		if err := fc.SetInterior([]filter.Filter{enc, lossy, dec}); err != nil {
			t.Fatal(err)
		}
		for j, pl := range payloads[i*16 : (i+1)*16] {
			frame, err := packet.Marshal(&packet.Packet{Seq: uint64(i*16 + j), Kind: packet.KindData, Payload: pl})
			if err != nil {
				t.Fatal(err)
			}
			if err := fc.Process(receiveBuf(frame)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
	for _, pl := range payloads {
		if seen[string(pl)] != 1 {
			t.Fatalf("payload %q delivered %d times, want once", pl, seen[string(pl)])
		}
	}
	if repairs.Load() != 12 || drops != 0 || groups.Load() != 12 {
		t.Fatalf("repaired %d, dropped %d, groups numbered %d; want 12, 0, 12",
			repairs.Load(), drops, groups.Load())
	}
}
