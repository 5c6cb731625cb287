package multicast

import (
	"errors"
	"testing"

	"rapidware/internal/packet"
)

func dataPacket(payload string) *packet.Packet {
	return &packet.Packet{Kind: packet.KindData, Payload: []byte(payload)}
}

func TestGroupJoinLeave(t *testing.T) {
	g := NewGroup("collab")
	if g.Name() != "collab" {
		t.Fatalf("Name = %q", g.Name())
	}
	a := NewBufferMember("a", 8)
	if err := g.Join(a); err != nil {
		t.Fatal(err)
	}
	if err := g.Join(NewBufferMember("a", 8)); !errors.Is(err, ErrMemberExists) {
		t.Fatalf("duplicate join err = %v", err)
	}
	if len(g.Members()) != 1 {
		t.Fatalf("Members = %v", g.Members())
	}
	if err := g.Leave("a"); err != nil {
		t.Fatal(err)
	}
	if err := g.Leave("a"); !errors.Is(err, ErrNoSuchMember) {
		t.Fatalf("second leave err = %v", err)
	}
}

func TestGroupSendDeliversToAllMembers(t *testing.T) {
	g := NewGroup("g")
	members := []*BufferMember{
		NewBufferMember("m1", 16),
		NewBufferMember("m2", 16),
		NewBufferMember("m3", 16),
	}
	for _, m := range members {
		if err := g.Join(m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		n, err := g.Send(dataPacket("update"))
		if err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("delivered to %d members, want 3", n)
		}
	}
	for _, m := range members {
		if m.Pending() != 5 {
			t.Fatalf("%s pending = %d, want 5", m.Name(), m.Pending())
		}
		p, err := m.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if p.Seq != 0 {
			t.Fatalf("first packet seq = %d, want 0", p.Seq)
		}
	}
	sent, errs := g.Stats()
	if sent != 5 || errs != 0 {
		t.Fatalf("Stats = %d/%d", sent, errs)
	}
}

func TestGroupSendAssignsIncreasingSequence(t *testing.T) {
	g := NewGroup("seq")
	m := NewBufferMember("m", 16)
	g.Join(m)
	for i := 0; i < 4; i++ {
		g.Send(dataPacket("x"))
	}
	for i := 0; i < 4; i++ {
		p, _ := m.Receive()
		if p.Seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", p.Seq, i)
		}
	}
}

func TestGroupSendCountsDeliveryErrors(t *testing.T) {
	g := NewGroup("lossy")
	full := NewBufferMember("full", 1)
	ok := NewBufferMember("ok", 16)
	g.Join(full)
	g.Join(ok)
	g.Send(dataPacket("1"))
	g.Send(dataPacket("2")) // overflows "full"
	_, errs := g.Stats()
	if errs != 1 {
		t.Fatalf("delivery errors = %d, want 1", errs)
	}
	if ok.Pending() != 2 {
		t.Fatalf("healthy member pending = %d, want 2", ok.Pending())
	}
}

func TestGroupClose(t *testing.T) {
	g := NewGroup("closing")
	m := NewBufferMember("m", 4)
	g.Join(m)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
	if _, err := g.Send(dataPacket("late")); !errors.Is(err, ErrGroupClosed) {
		t.Fatalf("Send after close err = %v", err)
	}
	if err := g.Join(NewBufferMember("late", 4)); !errors.Is(err, ErrGroupClosed) {
		t.Fatalf("Join after close err = %v", err)
	}
	if _, err := m.Receive(); !errors.Is(err, packet.ErrClosed) {
		t.Fatalf("Receive after close err = %v", err)
	}
}

func TestBufferMemberDeliverCopies(t *testing.T) {
	m := NewBufferMember("m", 4)
	p := dataPacket("abc")
	m.Deliver(p)
	p.Payload[0] = 'X'
	got, _ := m.Receive()
	if got.Payload[0] == 'X' {
		t.Fatal("delivered packet aliases the sender's buffer")
	}
}
