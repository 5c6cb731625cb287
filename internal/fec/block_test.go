package fec

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rapidware/internal/packet"
)

func newEncoder(t testing.TB, k, n int) *BlockEncoder {
	t.Helper()
	c, err := NewCoder(Params{K: k, N: n})
	if err != nil {
		t.Fatal(err)
	}
	return NewBlockEncoder(c, 1)
}

func TestBlockEncoderEmitsFullGroups(t *testing.T) {
	e := newEncoder(t, 4, 6)
	var emitted []*packet.Packet
	for i := 0; i < 4; i++ {
		out, err := e.Add([]byte(fmt.Sprintf("payload-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if i < 3 && out != nil {
			t.Fatalf("group emitted early at packet %d", i)
		}
		if i == 3 {
			emitted = out
		}
	}
	if len(emitted) != 6 {
		t.Fatalf("emitted %d packets, want 6", len(emitted))
	}
	for i, p := range emitted {
		if int(p.Index) != i {
			t.Fatalf("packet %d has index %d", i, p.Index)
		}
		wantKind := packet.KindData
		if i >= 4 {
			wantKind = packet.KindParity
		}
		if p.Kind != wantKind {
			t.Fatalf("packet %d kind = %v, want %v", i, p.Kind, wantKind)
		}
		if p.K != 4 || p.N != 6 || p.Group != 0 {
			t.Fatalf("packet %d has wrong block coordinates: %v", i, p)
		}
	}
	if len(e.pending) != 0 {
		t.Fatalf("pending = %d, want 0 after group flush", len(e.pending))
	}
}

func TestBlockEncoderSequencesAndGroupsAdvance(t *testing.T) {
	e := newEncoder(t, 2, 3)
	var all []*packet.Packet
	for i := 0; i < 6; i++ {
		out, err := e.Add([]byte{byte(i), byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, out...)
	}
	if len(all) != 9 { // 3 groups × 3 packets
		t.Fatalf("emitted %d packets, want 9", len(all))
	}
	seen := map[uint64]bool{}
	for _, p := range all {
		if seen[p.Seq] {
			t.Fatalf("duplicate sequence number %d", p.Seq)
		}
		seen[p.Seq] = true
	}
	if all[0].Group != 0 || all[3].Group != 1 || all[6].Group != 2 {
		t.Fatalf("groups did not advance: %d %d %d", all[0].Group, all[3].Group, all[6].Group)
	}
}

func TestBlockEncoderRejectsBadPayloads(t *testing.T) {
	e := newEncoder(t, 2, 4)
	if _, err := e.Add(nil); !errors.Is(err, ErrShareSize) {
		t.Fatalf("err = %v, want ErrShareSize", err)
	}
	if _, err := e.Add(make([]byte, packet.MaxPayload)); !errors.Is(err, ErrShareSize) {
		t.Fatalf("oversized payload err = %v, want ErrShareSize", err)
	}
}

func TestBlockEncoderFlushPartialGroup(t *testing.T) {
	e := newEncoder(t, 4, 6)
	e.Add([]byte("a"))
	e.Add([]byte("bb"))
	out := e.Flush()
	if len(out) != 2 {
		t.Fatalf("Flush returned %d packets, want 2", len(out))
	}
	if len(e.pending) != 0 {
		t.Fatalf("pending = %d after Flush, want 0", len(e.pending))
	}
	if out := e.Flush(); out != nil {
		t.Fatalf("second Flush returned %v, want nil", out)
	}
}

func TestBlockDecoderPassThroughNonFEC(t *testing.T) {
	d := NewBlockDecoder(0)
	p := &packet.Packet{Seq: 1, Kind: packet.KindData, Payload: []byte("x")}
	out, err := d.Add(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != p {
		t.Fatalf("non-FEC packet not passed through: %v", out)
	}
}

func TestBlockDecoderNoLossDeliversInOrder(t *testing.T) {
	e := newEncoder(t, 4, 6)
	d := NewBlockDecoder(0)
	var delivered []*packet.Packet
	for i := 0; i < 8; i++ {
		out, err := e.Add([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range out {
			dp, err := d.Add(p)
			if err != nil {
				t.Fatal(err)
			}
			delivered = append(delivered, dp...)
		}
	}
	if len(delivered) != 8 {
		t.Fatalf("delivered %d data packets, want 8", len(delivered))
	}
	for i, p := range delivered {
		if p.Payload[0] != byte(i) {
			t.Fatalf("packet %d out of order: %v", i, p)
		}
		if p.Kind != packet.KindData {
			t.Fatalf("delivered a non-data packet: %v", p)
		}
	}
	if d.Recovered() != 0 {
		t.Fatalf("Recovered = %d, want 0 with no loss", d.Recovered())
	}
}

func TestBlockDecoderRecoversSingleLoss(t *testing.T) {
	e := newEncoder(t, 4, 6)
	d := NewBlockDecoder(0)
	payloads := [][]byte{[]byte("alpha"), []byte("bravo-longer"), []byte("ch"), []byte("delta")}
	var group []*packet.Packet
	for _, pl := range payloads {
		out, err := e.Add(pl)
		if err != nil {
			t.Fatal(err)
		}
		group = append(group, out...)
	}
	// Drop data packet index 1 (the longest payload, exercising padding).
	var delivered []*packet.Packet
	for _, p := range group {
		if p.Kind == packet.KindData && p.Index == 1 {
			continue
		}
		out, err := d.Add(p)
		if err != nil {
			t.Fatal(err)
		}
		delivered = append(delivered, out...)
	}
	if len(delivered) != 4 {
		t.Fatalf("delivered %d packets, want 4", len(delivered))
	}
	byIndex := map[uint8][]byte{}
	for _, p := range delivered {
		byIndex[p.Index] = p.Payload
	}
	for i, pl := range payloads {
		if !bytes.Equal(byIndex[uint8(i)], pl) {
			t.Fatalf("payload %d = %q, want %q", i, byIndex[uint8(i)], pl)
		}
	}
	if d.Recovered() != 1 {
		t.Fatalf("Recovered = %d, want 1", d.Recovered())
	}
}

func TestBlockDecoderLateDataAfterReconstructionNotDuplicated(t *testing.T) {
	e := newEncoder(t, 2, 4)
	d := NewBlockDecoder(0)
	out1, _ := e.Add([]byte("one"))
	if out1 != nil {
		t.Fatal("group completed early")
	}
	group, err := e.Add([]byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	// Deliver data[0], parity[2], parity[3]: reconstruction of data[1] happens
	// as soon as 2 shares are present.
	var delivered []*packet.Packet
	for _, p := range []*packet.Packet{group[0], group[2], group[3]} {
		out, err := d.Add(p)
		if err != nil {
			t.Fatal(err)
		}
		delivered = append(delivered, out...)
	}
	if len(delivered) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(delivered))
	}
	// Now the "lost" data packet arrives late; it must not be delivered again.
	out, err := d.Add(group[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("late duplicate delivered: %v", out)
	}
}

func TestBlockDecoderDuplicateShareRejected(t *testing.T) {
	e := newEncoder(t, 2, 3)
	d := NewBlockDecoder(0)
	e.Add([]byte("one"))
	group, _ := e.Add([]byte("two"))
	if _, err := d.Add(group[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add(group[2]); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
}

func TestBlockDecoderGroupParamMismatch(t *testing.T) {
	d := NewBlockDecoder(0)
	p1 := &packet.Packet{Kind: packet.KindData, Group: 1, Index: 0, K: 2, N: 3, Payload: []byte("a")}
	p2 := &packet.Packet{Kind: packet.KindData, Group: 1, Index: 1, K: 2, N: 4, Payload: []byte("b")}
	if _, err := d.Add(p1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add(p2); !errors.Is(err, ErrGroupMismatch) {
		t.Fatalf("err = %v, want ErrGroupMismatch", err)
	}
}

func TestBlockDecoderInvalidPackets(t *testing.T) {
	d := NewBlockDecoder(0)
	bad := &packet.Packet{Kind: packet.KindData, K: 5, N: 3, Payload: []byte("x")}
	if _, err := d.Add(bad); err == nil {
		t.Fatal("expected error for k>n packet")
	}
	badIdx := &packet.Packet{Kind: packet.KindData, K: 2, N: 3, Index: 7, Payload: []byte("x")}
	if _, err := d.Add(badIdx); !errors.Is(err, ErrShareIndex) {
		t.Fatalf("err = %v, want ErrShareIndex", err)
	}
}

func TestBlockDecoderEvictsOldGroups(t *testing.T) {
	d := NewBlockDecoder(4)
	for g := 0; g < 10; g++ {
		p := &packet.Packet{Kind: packet.KindData, Group: uint32(g), Index: 0, K: 2, N: 3, Payload: []byte("x")}
		if _, err := d.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.groups) > 4 {
		t.Fatalf("tracked groups = %d, want <= 4", len(d.groups))
	}
}

// TestEndToEndRandomLoss simulates the paper's scenario: a long packet stream
// through encode, random loss below the correction capability per group, and
// decode; every payload must be delivered exactly once.
func TestEndToEndRandomLoss(t *testing.T) {
	const k, n, groups = 4, 6, 100
	e := newEncoder(t, k, n)
	d := NewBlockDecoder(0)
	rng := rand.New(rand.NewSource(42))

	sent := make(map[string]bool)
	got := make(map[string]int)
	for i := 0; i < k*groups; i++ {
		payload := []byte(fmt.Sprintf("pkt-%05d", i))
		sent[string(payload)] = true
		out, err := e.Add(payload)
		if err != nil {
			t.Fatal(err)
		}
		if out == nil {
			continue
		}
		// Drop up to n-k random packets from this group.
		drops := rng.Intn(n - k + 1)
		dropIdx := map[int]bool{}
		for len(dropIdx) < drops {
			dropIdx[rng.Intn(n)] = true
		}
		for _, p := range out {
			if dropIdx[int(p.Index)] {
				continue
			}
			delivered, err := d.Add(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, dp := range delivered {
				got[string(dp.Payload)]++
			}
		}
	}
	for pl := range sent {
		if got[pl] != 1 {
			t.Fatalf("payload %q delivered %d times, want exactly once", pl, got[pl])
		}
	}
}
