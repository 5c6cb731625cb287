package packet

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	var sent []*Packet
	for i := 0; i < 20; i++ {
		p := &Packet{Seq: uint64(i), StreamID: 1, Kind: KindData, Payload: bytes.Repeat([]byte{byte(i)}, i)}
		sent = append(sent, p)
		frame, err := Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame)
	}
	r := NewReader(&buf)
	for i, want := range sent {
		b, err := r.ReadFrameBuf(0)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		got, _, err := Unmarshal(b.B)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if got.Seq != want.Seq || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("packet %d mismatch: got %v want %v", i, got, want)
		}
	}
	if _, err := r.ReadFrameBuf(0); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF at clean end", err)
	}
}

func TestReaderTruncatedFrame(t *testing.T) {
	full, _ := Marshal(samplePacket())
	r := NewReader(bytes.NewReader(full[:len(full)-3]))
	if _, err := r.ReadFrameBuf(0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestReaderTruncatedHeader(t *testing.T) {
	full, _ := Marshal(samplePacket())
	r := NewReader(bytes.NewReader(full[:HeaderSize-2]))
	_, err := r.ReadFrameBuf(0)
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want a mid-header error", err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	garbage := bytes.Repeat([]byte{0xAB}, HeaderSize+10)
	r := NewReader(bytes.NewReader(garbage))
	if _, err := r.ReadFrameBuf(0); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReaderRejectsHugeLength(t *testing.T) {
	good, _ := Marshal(samplePacket())
	bad := append([]byte(nil), good...)
	bad[24], bad[25], bad[26], bad[27] = 0xff, 0xff, 0xff, 0xff
	r := NewReader(bytes.NewReader(bad))
	if _, err := r.ReadFrameBuf(0); !errors.Is(err, ErrPayloadRange) {
		t.Fatalf("err = %v, want ErrPayloadRange", err)
	}
}

func TestReframe(t *testing.T) {
	frame, err := Marshal(&Packet{Seq: 9, StreamID: 3, Kind: KindData, Group: 4, Index: 1, K: 4, N: 6, Payload: []byte("abcdef")})
	if err != nil {
		t.Fatal(err)
	}
	frame[23] = 0xff // a pad byte a sender set: the rewrite writes it as 0
	b, err := Reframe(frame, 6, func(dst []byte) []byte { return append(dst, "xyz"...) })
	if err != nil {
		t.Fatal(err)
	}
	p, n, err := Unmarshal(b.B)
	if err != nil || n != len(b.B) {
		t.Fatalf("Unmarshal = %d bytes of %d, %v", n, len(b.B), err)
	}
	if p.Seq != 9 || p.StreamID != 3 || p.Kind != KindData || p.Group != 4 || p.Index != 1 || p.K != 4 || p.N != 6 || string(p.Payload) != "xyz" {
		t.Fatalf("reframed packet %v, payload %q", p, p.Payload)
	}
	if b.B[23] != 0 {
		t.Fatalf("pad byte %#x, want 0", b.B[23])
	}
	if !b.Unshift(SessionIDSize) {
		t.Fatal("reframed buffer has no session-ID headroom")
	}
	b.Release()
	if _, err := Reframe(frame, 2, func(dst []byte) []byte { return append(dst, "xyz"...) }); err == nil {
		t.Fatal("Reframe accepted a fill past its max")
	}
	if _, err := Reframe(frame, MaxPayload+1, func(dst []byte) []byte { return dst }); err == nil {
		t.Fatal("Reframe accepted a max past MaxPayload")
	}
}
