package packet

import (
	"errors"
	"testing"
)

func TestNackRoundTrip(t *testing.T) {
	seqs := []uint64{0, 3, 7, 1 << 40}
	dgram, err := AppendNackDatagram(nil, 42, 2, 9, seqs)
	if err != nil {
		t.Fatalf("AppendNackDatagram: %v", err)
	}
	id, frame, err := SplitSessionID(dgram)
	if err != nil {
		t.Fatalf("SplitSessionID: %v", err)
	}
	if id != 42 {
		t.Fatalf("session = %d, want 42", id)
	}
	if err := ValidateFrame(frame); err != nil {
		t.Fatalf("ValidateFrame rejected a nack frame: %v", err)
	}
	if k := Kind(frame[3]); k != KindNack {
		t.Fatalf("kind = %v, want nack", k)
	}
	var buf [MaxNackSeqs]uint64
	got, err := ParseNack(frame, buf[:0])
	if err != nil {
		t.Fatalf("ParseNack: %v", err)
	}
	if len(got) != len(seqs) {
		t.Fatalf("got %d seqs, want %d", len(got), len(seqs))
	}
	for i := range seqs {
		if got[i] != seqs[i] {
			t.Fatalf("seq[%d] = %d, want %d", i, got[i], seqs[i])
		}
	}
}

func TestNackBounds(t *testing.T) {
	if _, err := AppendNackDatagram(nil, 0, 0, 0, nil); !errors.Is(err, ErrBadNack) {
		t.Fatalf("empty seqs: err = %v, want ErrBadNack", err)
	}
	big := make([]uint64, MaxNackSeqs+1)
	if _, err := AppendNackDatagram(nil, 0, 0, 0, big); !errors.Is(err, ErrBadNack) {
		t.Fatalf("oversized seqs: err = %v, want ErrBadNack", err)
	}
	// A full-size request is legal.
	full := make([]uint64, MaxNackSeqs)
	for i := range full {
		full[i] = uint64(i)
	}
	dgram, err := AppendNackDatagram(nil, 0, 0, 0, full)
	if err != nil {
		t.Fatalf("full-size nack rejected: %v", err)
	}
	frame := dgram[SessionIDSize:]
	got, err := ParseNack(frame, nil)
	if err != nil || len(got) != MaxNackSeqs {
		t.Fatalf("ParseNack(full) = %d seqs, %v", len(got), err)
	}
}

func TestParseNackRejectsMalformed(t *testing.T) {
	// Wrong kind.
	frame, err := AppendFrame(nil, &Packet{Kind: KindFeedback, Payload: make([]byte, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseNack(frame, nil); !errors.Is(err, ErrBadNack) {
		t.Fatalf("wrong kind: err = %v, want ErrBadNack", err)
	}
	// Count disagrees with payload length.
	frame, err = AppendFrame(nil, &Packet{Kind: KindNack, Payload: []byte{0, 3, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseNack(frame, nil); !errors.Is(err, ErrBadNack) {
		t.Fatalf("short payload: err = %v, want ErrBadNack", err)
	}
	// Zero count.
	frame, err = AppendFrame(nil, &Packet{Kind: KindNack, Payload: []byte{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseNack(frame, nil); !errors.Is(err, ErrBadNack) {
		t.Fatalf("zero count: err = %v, want ErrBadNack", err)
	}
}
