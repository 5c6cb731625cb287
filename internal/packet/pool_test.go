package packet

import (
	"bytes"
	"testing"
)

func TestGetBufSizes(t *testing.T) {
	for _, n := range []int{0, 1, 512, 513, 2048, 4096, MaxDatagram, MaxDatagram + 1} {
		b := GetBuf(n)
		if len(b.B) != n {
			t.Fatalf("GetBuf(%d): len = %d", n, len(b.B))
		}
		if b.Cap() < n {
			t.Fatalf("GetBuf(%d): cap = %d", n, b.Cap())
		}
		b.Release()
	}
}

// TestBufSurvivesReslicing covers the relay engine's usage pattern: the
// session strips the datagram prefix by advancing B, then releases; the
// buffer must come back at full size.
func TestBufSurvivesReslicing(t *testing.T) {
	b := GetBuf(100)
	b.B = b.B[SessionIDSize:]
	b.B = b.B[:10]
	b.Release()
	for i := 0; i < 10; i++ {
		nb := GetBuf(512)
		if len(nb.B) != 512 {
			t.Fatalf("after reslice+release: GetBuf(512) len = %d", len(nb.B))
		}
		nb.Release()
	}
}

// TestBufRetainSharesOwnership covers shared ownership: one producer retains
// n-1 extra references and hands the same buffer to n consumers; the storage
// must return to the pool only after the last Release.
func TestBufRetainSharesOwnership(t *testing.T) {
	b := GetBuf(64)
	if b.Refs() != 1 {
		t.Fatalf("fresh Buf refs = %d, want 1", b.Refs())
	}
	b.Retain(2) // three holders in total
	if b.Refs() != 3 {
		t.Fatalf("after Retain(2): refs = %d, want 3", b.Refs())
	}
	b.B[0] = 0xEE
	b.Release()
	b.Release()
	// Two of three references dropped: the bytes must still be intact and the
	// buffer must not yet have been recycled.
	if b.Refs() != 1 || b.B[0] != 0xEE {
		t.Fatalf("after 2 releases: refs = %d, B[0] = %#x", b.Refs(), b.B[0])
	}
	b.Release()
	// The final release recycles; a fresh Get must hold exactly one reference
	// again even if it reuses the same storage.
	nb := GetBuf(64)
	if nb.Refs() != 1 {
		t.Fatalf("recycled Buf refs = %d, want 1", nb.Refs())
	}
	nb.Release()
	// Retain on nil and with non-positive counts must be no-ops.
	var nilBuf *Buf
	nilBuf.Retain(1)
	nilBuf.Release()
	ok := GetBuf(8)
	ok.Retain(0)
	ok.Retain(-3)
	if ok.Refs() != 1 {
		t.Fatalf("Retain(<=0) changed refs to %d", ok.Refs())
	}
	ok.Release()
}

func TestReadFrameBufHeadroom(t *testing.T) {
	p := &Packet{Seq: 3, Kind: KindData, Payload: []byte("abc")}
	frame, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	pr := NewReader(bytes.NewReader(frame))
	b, err := pr.ReadFrameBuf(SessionIDSize)
	if err != nil {
		t.Fatalf("ReadFrameBuf: %v", err)
	}
	defer b.Release()
	if len(b.B) != SessionIDSize+len(frame) {
		t.Fatalf("frame buf length %d, want %d", len(b.B), SessionIDSize+len(frame))
	}
	got, _, err := Unmarshal(b.B[SessionIDSize:])
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if string(got.Payload) != "abc" || got.Seq != 3 {
		t.Fatalf("decoded %v", got)
	}
}

// TestFrameBufHeadroom pins the headroom contract the engine's inline path
// relies on: a frame buffer (or a received datagram whose prefix was sliced
// off) can grow back over its own storage, and nothing else can.
func TestFrameBufHeadroom(t *testing.T) {
	b := GetFrameBuf(100)
	if len(b.B) != 100 {
		t.Fatalf("GetFrameBuf(100) has len %d", len(b.B))
	}
	b.B[0] = 0xAB
	if !b.Unshift(SessionIDSize) || len(b.B) != SessionIDSize+100 || b.B[SessionIDSize] != 0xAB {
		t.Fatalf("Unshift lost the frame: len %d", len(b.B))
	}
	if b.Unshift(1) {
		t.Fatal("Unshift past the start of the storage succeeded")
	}
	b.Release()

	// A received datagram: prefix sliced off, then recovered with its bytes.
	d := GetBuf(MaxDatagram)
	PutSessionID(d.B, 0xC0FFEE)
	d.B = d.B[:64]
	d.B = d.B[SessionIDSize:]
	if !d.Unshift(SessionIDSize) || len(d.B) != 64 {
		t.Fatalf("Unshift on a received datagram: len %d", len(d.B))
	}
	if id, _, _ := SplitSessionID(d.B); id != 0xC0FFEE {
		t.Fatalf("recovered prefix = %#x", id)
	}
	// B re-pointed at foreign memory has no headroom to claim.
	d.B = make([]byte, 8, 16)[4:]
	if d.Unshift(SessionIDSize) {
		t.Fatal("Unshift succeeded on a slice that is not the buffer's storage")
	}
	d.Release()
}
