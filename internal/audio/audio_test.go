package audio

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestPaperFormat(t *testing.T) {
	f := PaperFormat()
	if f.SampleRate != 8000 || f.Channels != 2 || f.BitsPerSample != 8 {
		t.Fatalf("PaperFormat = %+v", f)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.BytesPerSecond() != 16000 {
		t.Fatalf("BytesPerSecond = %d, want 16000", f.BytesPerSecond())
	}
	if f.BytesPerFrame() != 2 {
		t.Fatalf("BytesPerFrame = %d, want 2", f.BytesPerFrame())
	}
	if f.String() == "" {
		t.Fatal("String empty")
	}
}

func TestFormatValidate(t *testing.T) {
	cases := []struct {
		f  Format
		ok bool
	}{
		{Format{8000, 2, 8}, true},
		{Format{44100, 1, 16}, true},
		{Format{0, 2, 8}, false},
		{Format{8000, 0, 8}, false},
		{Format{8000, 2, 12}, false},
	}
	for _, c := range cases {
		if err := c.f.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.f, err, c.ok)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	f := PaperFormat()
	if got := f.Duration(16000); got != time.Second {
		t.Fatalf("Duration(16000) = %v, want 1s", got)
	}
	if (Format{}).Duration(100) != 0 {
		t.Fatal("invalid format should report zero duration")
	}
}

func TestGenerateToneLengthAndRange(t *testing.T) {
	f := PaperFormat()
	pcm, err := GenerateTone(f, 440, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(pcm) != f.BytesPerSecond() {
		t.Fatalf("len = %d, want %d", len(pcm), f.BytesPerSecond())
	}
	// 8-bit unsigned samples around the midpoint; a 0.6 amplitude tone must
	// not be stuck at a constant value.
	minV, maxV := pcm[0], pcm[0]
	for _, s := range pcm {
		if s < minV {
			minV = s
		}
		if s > maxV {
			maxV = s
		}
	}
	if maxV-minV < 100 {
		t.Fatalf("tone has tiny dynamic range: [%d,%d]", minV, maxV)
	}
	if _, err := GenerateTone(Format{}, 440, time.Second); err == nil {
		t.Fatal("expected error for invalid format")
	}
}

func TestGenerateTone16Bit(t *testing.T) {
	f := Format{SampleRate: 8000, Channels: 1, BitsPerSample: 16}
	pcm, err := GenerateTone(f, 440, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(pcm) != 800*2 {
		t.Fatalf("len = %d, want 1600", len(pcm))
	}
}

func TestGenerateSpeechLikeDeterministic(t *testing.T) {
	f := PaperFormat()
	a, err := GenerateSpeechLike(f, 500*time.Millisecond, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSpeechLike(f, 500*time.Millisecond, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different audio")
	}
	c, _ := GenerateSpeechLike(f, 500*time.Millisecond, 43)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical audio")
	}
	if _, err := GenerateSpeechLike(Format{}, time.Second, 1); err == nil {
		t.Fatal("expected error for invalid format")
	}
}

func TestWAVRoundTrip(t *testing.T) {
	f := PaperFormat()
	pcm, _ := GenerateTone(f, 440, 250*time.Millisecond)
	wav, err := EncodeWAV(f, pcm)
	if err != nil {
		t.Fatal(err)
	}
	if len(wav) != 44+len(pcm) {
		t.Fatalf("wav length %d, want %d", len(wav), 44+len(pcm))
	}
	gotF, gotPCM, err := DecodeWAV(wav)
	if err != nil {
		t.Fatal(err)
	}
	if gotF != f {
		t.Fatalf("decoded format %+v, want %+v", gotF, f)
	}
	if !bytes.Equal(gotPCM, pcm) {
		t.Fatal("PCM data corrupted through WAV round trip")
	}
}

func TestEncodeWAVInvalidFormat(t *testing.T) {
	if _, err := EncodeWAV(Format{}, nil); err == nil {
		t.Fatal("expected error for invalid format")
	}
}

func TestDecodeWAVErrors(t *testing.T) {
	f := PaperFormat()
	pcm, _ := GenerateTone(f, 440, 50*time.Millisecond)
	wav, _ := EncodeWAV(f, pcm)

	t.Run("too short", func(t *testing.T) {
		if _, _, err := DecodeWAV(wav[:20]); !errors.Is(err, ErrWAVTruncated) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), wav...)
		copy(bad[0:4], "JUNK")
		if _, _, err := DecodeWAV(bad); !errors.Is(err, ErrNotWAV) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated data chunk", func(t *testing.T) {
		if _, _, err := DecodeWAV(wav[:len(wav)-10]); !errors.Is(err, ErrWAVTruncated) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("non-pcm compression", func(t *testing.T) {
		bad := append([]byte(nil), wav...)
		bad[20] = 2 // compression code
		if _, _, err := DecodeWAV(bad); !errors.Is(err, ErrWAVFormat) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestPacketizerSplit(t *testing.T) {
	f := PaperFormat()
	p, err := NewPacketizer(f, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// 20 ms at 16000 B/s = 320 bytes.
	if p.PayloadSize() != 320 {
		t.Fatalf("PayloadSize = %d, want 320", p.PayloadSize())
	}
	pcm, _ := GenerateTone(f, 440, time.Second)
	chunks := p.Split(pcm)
	if len(chunks) != 50 {
		t.Fatalf("chunks = %d, want 50", len(chunks))
	}
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	if total != len(pcm) {
		t.Fatalf("split lost bytes: %d of %d", total, len(pcm))
	}
	// Uneven tail.
	chunks = p.Split(pcm[:1000])
	if len(chunks) != 4 || len(chunks[3]) != 1000-3*320 {
		t.Fatalf("tail handling wrong: %d chunks, last %d bytes", len(chunks), len(chunks[len(chunks)-1]))
	}
}

func TestPacketizerErrors(t *testing.T) {
	if _, err := NewPacketizer(Format{}, 20*time.Millisecond); err == nil {
		t.Fatal("expected error for invalid format")
	}
	if _, err := NewPacketizer(PaperFormat(), 0); err == nil {
		t.Fatal("expected error for zero interval")
	}
	if _, err := NewPacketizer(PaperFormat(), 10*time.Microsecond); err == nil {
		t.Fatal("expected error for sub-frame interval")
	}
}

func TestReassemblerFillsSilence(t *testing.T) {
	f := PaperFormat()
	pktizer, _ := NewPacketizer(f, 20*time.Millisecond)
	pcm, _ := GenerateTone(f, 440, 200*time.Millisecond)
	chunks := pktizer.Split(pcm)

	r, err := NewReassembler(f, pktizer.PayloadSize())
	if err != nil {
		t.Fatal(err)
	}
	lostIdx := 3
	for i := range chunks {
		if i == lostIdx {
			continue
		}
		r.Add(i)
	}
	r.MarkExpected(len(chunks) - 1)

	if r.maxIndex != len(chunks)-1 || len(r.received) != len(chunks)-1 {
		t.Fatalf("maxIndex %d with %d packets received, want %d with %d", r.maxIndex, len(r.received), len(chunks)-1, len(chunks)-1)
	}
	if _, ok := r.received[lostIdx]; ok {
		t.Fatalf("packet %d received, want it missing", lostIdx)
	}
	wantCompleteness := float64(len(chunks)-1) / float64(len(chunks))
	if got := r.Completeness(); got != wantCompleteness {
		t.Fatalf("Completeness = %v, want %v", got, wantCompleteness)
	}
}

func TestReassemblerEdgeCases(t *testing.T) {
	f := PaperFormat()
	r, err := NewReassembler(f, 320)
	if err != nil {
		t.Fatal(err)
	}
	if r.haveAny || r.Completeness() != 1 {
		t.Fatal("empty reassembler should report empty results")
	}
	r.Add(-1)          // ignored
	r.MarkExpected(-5) // ignored
	if r.haveAny || len(r.received) != 0 {
		t.Fatal("negative indices must be ignored")
	}
	if _, err := NewReassembler(Format{}, 320); err == nil {
		t.Fatal("expected error for invalid format")
	}
	if _, err := NewReassembler(f, 0); err == nil {
		t.Fatal("expected error for zero payload size")
	}
}

func TestReassemblerDuplicateCountsOnce(t *testing.T) {
	f := PaperFormat()
	r, _ := NewReassembler(f, 4)
	r.Add(0)
	r.Add(0)
	r.MarkExpected(1)
	if got := r.Completeness(); got != 0.5 {
		t.Fatalf("Completeness = %v after packet 0 twice of 2 expected, want 0.5", got)
	}
}
