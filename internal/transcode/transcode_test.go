package transcode

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"
	"testing"
	"time"

	"rapidware/internal/audio"
	"rapidware/internal/endpoint"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

func TestDownsamplePCM(t *testing.T) {
	f := audio.PaperFormat()
	pcm, _ := audio.GenerateTone(f, 440, 100*time.Millisecond)
	down, nf, err := DownsamplePCM(f, pcm, 2)
	if err != nil {
		t.Fatal(err)
	}
	if nf.SampleRate != 4000 {
		t.Fatalf("new rate = %d", nf.SampleRate)
	}
	if len(down) != len(pcm)/2 {
		t.Fatalf("len = %d, want %d", len(down), len(pcm)/2)
	}
	// Factor 1 copies.
	same, _, err := DownsamplePCM(f, pcm, 1)
	if err != nil || !bytes.Equal(same, pcm) {
		t.Fatal("factor 1 should copy unchanged")
	}
	if _, _, err := DownsamplePCM(f, pcm, 0); err == nil {
		t.Fatal("expected error for factor 0")
	}
	if _, _, err := DownsamplePCM(audio.Format{}, pcm, 2); err == nil {
		t.Fatal("expected error for bad format")
	}
}

func TestStereoToMono(t *testing.T) {
	f := audio.PaperFormat()
	// Left channel 100, right channel 200 -> mono 150.
	pcm := []byte{100, 200, 100, 200, 100, 200}
	mono, nf, err := StereoToMono(f, pcm)
	if err != nil {
		t.Fatal(err)
	}
	if nf.Channels != 1 {
		t.Fatalf("channels = %d", nf.Channels)
	}
	want := []byte{150, 150, 150}
	if !bytes.Equal(mono, want) {
		t.Fatalf("mono = %v, want %v", mono, want)
	}
	// Already mono copies.
	monoFmt := audio.Format{SampleRate: 8000, Channels: 1, BitsPerSample: 8}
	same, _, err := StereoToMono(monoFmt, []byte{1, 2, 3})
	if err != nil || !bytes.Equal(same, []byte{1, 2, 3}) {
		t.Fatal("mono input should copy unchanged")
	}
	// 16-bit unsupported.
	if _, _, err := StereoToMono(audio.Format{SampleRate: 8000, Channels: 2, BitsPerSample: 16}, pcm); err == nil {
		t.Fatal("expected error for 16-bit input")
	}
}

func TestReduceBitDepth(t *testing.T) {
	f16 := audio.Format{SampleRate: 8000, Channels: 1, BitsPerSample: 16}
	pcm16, _ := audio.GenerateTone(f16, 440, 50*time.Millisecond)
	out, nf, err := ReduceBitDepth(f16, pcm16)
	if err != nil {
		t.Fatal(err)
	}
	if nf.BitsPerSample != 8 || len(out) != len(pcm16)/2 {
		t.Fatalf("reduced = %d bytes %d-bit", len(out), nf.BitsPerSample)
	}
	f8 := audio.PaperFormat()
	same, _, err := ReduceBitDepth(f8, []byte{1, 2})
	if err != nil || !bytes.Equal(same, []byte{1, 2}) {
		t.Fatal("8-bit input should copy unchanged")
	}
	if _, _, err := ReduceBitDepth(audio.Format{}, nil); err == nil {
		t.Fatal("expected error for bad format")
	}
}

// runPacketFilter pushes packets through a single filter and collects output.
func runPacketFilter(t *testing.T, f filter.Filter, in []*packet.Packet) []*packet.Packet {
	t.Helper()
	i := 0
	src := endpoint.NewPacketSource("src", func() (*packet.Packet, error) {
		if i >= len(in) {
			return nil, io.EOF
		}
		p := in[i]
		i++
		return p, nil
	})
	var mu sync.Mutex
	var out []*packet.Packet
	sink := endpoint.NewPacketSink("sink", func(p *packet.Packet) error {
		mu.Lock()
		out = append(out, p)
		mu.Unlock()
		return nil
	})
	c := filter.NewChain("t")
	c.Append(src)
	c.Append(f)
	c.Append(sink)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return out
}

func TestDownsampleFilter(t *testing.T) {
	f := audio.PaperFormat()
	df, err := NewDownsampleFilter("", f, 2)
	if err != nil {
		t.Fatal(err)
	}
	pcm, _ := audio.GenerateTone(f, 440, 20*time.Millisecond)
	in := []*packet.Packet{
		{Seq: 0, Kind: packet.KindData, Payload: pcm},
		{Seq: 1, Kind: packet.KindControl, Payload: []byte("marker")},
	}
	out := runPacketFilter(t, df, in)
	if len(out) != 2 {
		t.Fatalf("out = %d packets", len(out))
	}
	if len(out[0].Payload) != len(pcm)/2 {
		t.Fatalf("downsampled payload = %d bytes, want %d", len(out[0].Payload), len(pcm)/2)
	}
	if string(out[1].Payload) != "marker" {
		t.Fatal("control packet modified")
	}
	if _, err := NewDownsampleFilter("", f, 0); err == nil {
		t.Fatal("expected error for bad factor")
	}
	if _, err := NewDownsampleFilter("", audio.Format{}, 2); err == nil {
		t.Fatal("expected error for bad format")
	}
}

func TestMonoFilter(t *testing.T) {
	f := audio.PaperFormat()
	mf, err := NewMonoFilter("", f)
	if err != nil {
		t.Fatal(err)
	}
	in := []*packet.Packet{{Seq: 0, Kind: packet.KindData, Payload: []byte{10, 20, 30, 40}}}
	out := runPacketFilter(t, mf, in)
	if len(out) != 1 || !bytes.Equal(out[0].Payload, []byte{15, 35}) {
		t.Fatalf("mono filter output = %v", out)
	}
	if _, err := NewMonoFilter("", audio.Format{}); err == nil {
		t.Fatal("expected error for bad format")
	}
}

func TestThinningFilter(t *testing.T) {
	tf, err := NewThinningFilter("", 3)
	if err != nil {
		t.Fatal(err)
	}
	var in []*packet.Packet
	for i := 0; i < 9; i++ {
		in = append(in, &packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: []byte{byte(i)}})
	}
	// Parity and control packets must survive thinning regardless of position.
	in = append(in, &packet.Packet{Seq: 100, Kind: packet.KindParity, K: 4, N: 6, Payload: []byte("p")})
	out := runPacketFilter(t, tf, in)
	if len(out) != 4 {
		t.Fatalf("thinned to %d packets, want 4 (3 data + parity)", len(out))
	}
	for i, wantSeq := range []uint64{0, 3, 6, 100} {
		if out[i].Seq != wantSeq {
			t.Fatalf("out[%d].Seq = %d, want %d", i, out[i].Seq, wantSeq)
		}
	}

	// Factor 1 forwards everything.
	all, err := NewThinningFilter("", 1)
	if err != nil {
		t.Fatal(err)
	}
	if out := runPacketFilter(t, all, in); len(out) != len(in) {
		t.Fatalf("factor 1 thinned %d to %d packets", len(in), len(out))
	}
	if _, err := NewThinningFilter("", 0); err == nil {
		t.Fatal("expected error for factor 0")
	}
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	cf, err := NewCompressFilter("", 6)
	if err != nil {
		t.Fatal(err)
	}
	df := NewDecompressFilter("")
	payload := bytes.Repeat([]byte("compressible content "), 200)
	in := []*packet.Packet{
		{Seq: 0, Kind: packet.KindData, Payload: payload},
		{Seq: 1, Kind: packet.KindData, Payload: nil},
	}
	compressed := runPacketFilter(t, cf, in)
	if len(compressed) != 2 {
		t.Fatalf("compressed = %d packets", len(compressed))
	}
	if len(compressed[0].Payload) >= len(payload) {
		t.Fatalf("compression did not shrink payload: %d >= %d", len(compressed[0].Payload), len(payload))
	}
	restored := runPacketFilter(t, df, compressed)
	if !bytes.Equal(restored[0].Payload, payload) {
		t.Fatal("round trip corrupted payload")
	}
	if _, err := NewCompressFilter("", 99); err == nil {
		t.Fatal("expected error for invalid compression level")
	}
}

func TestCompressionPipelineEndToEnd(t *testing.T) {
	// compress -> decompress chained in one pipeline.
	cf, _ := NewCompressFilter("c", 1)
	df := NewDecompressFilter("d")
	payload := bytes.Repeat([]byte("pavilion web object "), 500)
	in := []*packet.Packet{{Seq: 0, Kind: packet.KindData, Payload: payload}}
	i := 0
	src := endpoint.NewPacketSource("src", func() (*packet.Packet, error) {
		if i >= len(in) {
			return nil, io.EOF
		}
		p := in[i]
		i++
		return p, nil
	})
	var mu sync.Mutex
	var out []*packet.Packet
	sink := endpoint.NewPacketSink("sink", func(p *packet.Packet) error {
		mu.Lock()
		out = append(out, p)
		mu.Unlock()
		return nil
	})
	c := filter.NewChain("zip")
	for _, f := range []filter.Stage{src, cf, df, sink} {
		c.Append(f)
	}
	c.Start()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(out) != 1 || !bytes.Equal(out[0].Payload, payload) {
		t.Fatal("compress/decompress pipeline corrupted data")
	}
}

// TestCompressMatchesFreshWriter holds the pooled compressors to what a
// fresh flate.Writer emits, at every level and on a reused writer: the
// second and third payload are compressed by a writer the first left in
// the pool.
func TestCompressMatchesFreshWriter(t *testing.T) {
	payloads := [][]byte{
		bytes.Repeat([]byte("compressible content "), 300),
		[]byte("short"),
		bytes.Repeat([]byte{7, 1, 9, 3}, 2000),
	}
	for level := flate.HuffmanOnly; level <= flate.BestCompression; level++ {
		cf, err := NewCompressFilter("", level)
		if err != nil {
			t.Fatal(err)
		}
		var in []*packet.Packet
		for i, p := range payloads {
			in = append(in, &packet.Packet{Seq: uint64(i), Kind: packet.KindData, Payload: p})
		}
		out := runPacketFilter(t, cf, in)
		if len(out) != len(payloads) {
			t.Fatalf("level %d: %d packets out, want %d", level, len(out), len(payloads))
		}
		for i, p := range payloads {
			var want bytes.Buffer
			w, _ := flate.NewWriter(&want, level)
			w.Write(p)
			w.Close()
			if !bytes.Equal(out[i].Payload, want.Bytes()) {
				t.Fatalf("level %d payload %d: pooled writer emitted %d bytes unlike a fresh writer's %d", level, i, len(out[i].Payload), want.Len())
			}
		}
	}
}

// TestDecompressDropsOversizedPayload feeds decompress a DEFLATE stream that
// inflates one byte past packet.MaxPayload, and one that is not DEFLATE at
// all: each is a counted drop, and the chain keeps decompressing.
func TestDecompressDropsOversizedPayload(t *testing.T) {
	deflate := func(raw []byte) []byte {
		var buf bytes.Buffer
		w, _ := flate.NewWriter(&buf, flate.BestSpeed)
		w.Write(raw)
		w.Close()
		return buf.Bytes()
	}
	df := NewDecompressFilter("")
	drops := 0
	df.(interface{ OnDrop(func()) }).OnDrop(func() { drops++ })
	var out [][]byte
	fc := filter.NewFrameChain(func(b *packet.Buf) {
		out = append(out, append([]byte(nil), b.B[packet.HeaderSize:]...))
		b.Release()
	})
	if err := fc.SetInterior([]filter.Filter{df}); err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{deflate(make([]byte, packet.MaxPayload+1)), []byte("not deflate"), deflate([]byte("fits"))} {
		frame, err := packet.Marshal(&packet.Packet{Kind: packet.KindData, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		b := packet.GetFrameBuf(len(frame))
		copy(b.B, frame)
		if err := fc.Process(b); err != nil {
			t.Fatalf("decompress failed the chain: %v", err)
		}
	}
	if drops != 2 || len(out) != 1 || string(out[0]) != "fits" {
		t.Fatalf("%d drops, output %q; want 2 drops and \"fits\"", drops, out)
	}
}
