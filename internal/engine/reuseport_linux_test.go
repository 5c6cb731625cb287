//go:build linux && (amd64 || arm64) && !purego

package engine

import (
	"net"
	"testing"
	"time"

	"rapidware/internal/packet"
)

// TestEngineReusePortEchoAcrossShards runs the multi-socket mode for real:
// four shards, each with its own SO_REUSEPORT socket, and a fleet of clients
// whose flows the kernel hashes across those sockets. Every session must
// echo regardless of which shard socket received it or sent the reply (all
// sockets share the same bound address, so replies are indistinguishable to
// the client).
func TestEngineReusePortEchoAcrossShards(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 4, ReusePort: true})
	if got := len(e.conns); got != 4 {
		t.Fatalf("bound %d sockets, want 4", got)
	}
	want := e.conns[0].LocalAddr().String()
	for i, c := range e.conns {
		if got := c.LocalAddr().String(); got != want {
			t.Fatalf("socket %d bound %s, want %s", i, got, want)
		}
	}

	addr := e.LocalAddr().(*net.UDPAddr)
	const sessions = 32
	buf := make([]byte, packet.MaxDatagram)
	for id := uint32(1); id <= sessions; id++ {
		c, err := net.DialUDP("udp", nil, addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		dgram, err := packet.AppendDatagram(nil, id, &packet.Packet{
			Seq: 1, StreamID: id, Kind: packet.KindData, Payload: []byte{byte(id)},
		})
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		echoed := false
		for attempt := 0; attempt < 5 && !echoed; attempt++ {
			if _, err := c.Write(dgram); err != nil {
				t.Fatalf("session %d: write: %v", id, err)
			}
			c.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
			n, err := c.Read(buf)
			if err != nil {
				continue
			}
			gotID, frame, err := packet.SplitSessionID(buf[:n])
			if err != nil || gotID != id {
				continue
			}
			if p, _, err := packet.Unmarshal(frame); err == nil && len(p.Payload) == 1 && p.Payload[0] == byte(id) {
				echoed = true
			}
		}
		c.Close()
		if !echoed {
			t.Fatalf("session %d never echoed over the reuseport sockets", id)
		}
	}
	if n := e.SessionCount(); n != sessions {
		t.Fatalf("SessionCount = %d, want %d", n, sessions)
	}
}
