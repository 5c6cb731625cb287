package engine

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"rapidware/internal/compose"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
)

// TestOneSendPathFourShards drives every producer of the one send path at
// once on four shards: readers' batch ends carrying trunk, bypass-lane and
// cohort-tail output, a delay=1ms trunk whose timer releases frames outside
// every batch, EditSession splices racing the traffic, and session close.
// Four sessions each feed their frames in order; four receivers in two
// cohorts (a bypass lane and an FEC cohort) must each get every session's
// data frame exactly once, per session its data frames in order and its
// parity frames in order, with no write drop. It runs once on a shared
// socket and once under SO_REUSEPORT.
func TestOneSendPathFourShards(t *testing.T) {
	t.Run("shared-socket", func(t *testing.T) { testOneSendPath(t, false) })
	t.Run("reuseport", func(t *testing.T) {
		if !reusePortAvailable {
			t.Skip("SO_REUSEPORT needs the batched socket path")
		}
		testOneSendPath(t, true)
	})
}

func testOneSendPath(t *testing.T, reusePort bool) {
	const (
		sessions  = 4
		frames    = 300 // per session, after the one that opens it
		receivers = 4
	)
	rxs := make([]*net.UDPConn, receivers)
	keys := make([]string, receivers)
	var fanout []string
	for i := range rxs {
		rxs[i] = listenReceiver(t)
		_ = rxs[i].SetReadBuffer(4 << 20)
		keys[i] = rxs[i].LocalAddr().(*net.UDPAddr).AddrPort().String()
		fanout = append(fanout, keys[i])
	}
	e := newTestEngine(t, Config{Shards: 4, ReusePort: reusePort, Chain: "delay=1ms", Adapt: true, Fanout: fanout})

	// Each receiver records, per session, the payload stamps of its data
	// frames and the (group, index) of its parity frames in arrival order.
	type key struct {
		rx int
		id uint32
	}
	var mu sync.Mutex
	data := make(map[key][]uint64)
	parity := make(map[key][]uint64)
	for i, rx := range rxs {
		go func() {
			buf := make([]byte, packet.MaxDatagram)
			for {
				rx.SetReadDeadline(time.Now().Add(10 * time.Second))
				n, err := rx.Read(buf)
				if err != nil {
					return
				}
				id, frame, err := packet.SplitSessionID(buf[:n])
				if err != nil {
					continue
				}
				p, _, err := packet.Unmarshal(frame)
				if err != nil {
					continue
				}
				k := key{i, id}
				mu.Lock()
				switch {
				case p.Kind == packet.KindData && len(p.Payload) >= 8:
					data[k] = append(data[k], binary.BigEndian.Uint64(p.Payload))
				case p.Kind == packet.KindParity:
					parity[k] = append(parity[k], uint64(p.Group)<<8|uint64(p.Index))
				}
				mu.Unlock()
			}
		}()
	}

	stamp := func(seq uint64) []byte {
		return binary.BigEndian.AppendUint64(nil, seq)
	}
	ids := make([]uint32, sessions)
	clients := make([]*net.UDPConn, sessions)
	for j := range ids {
		ids[j] = uint32(100 + j)
		clients[j] = dialEngine(t, e)
		sendPacket(t, clients[j], ids[j], &packet.Packet{Seq: 0, Kind: packet.KindData, Payload: stamp(0)})
	}
	// Receivers 2 and 3 report loss on every session, which moves them into
	// one FEC cohort; 0 and 1 stay on the bypass lane.
	for _, id := range ids {
		receiverStat(t, e, id, keys[0], "first delivery", func(rs metrics.ReceiverStats) bool { return rs.OutPackets >= 1 })
		for _, i := range []int{2, 3} {
			reportUntil(t, rxs[i], e, id, packet.Report{Received: 90, Lost: 10, Window: 100}, keys[i], "FEC cohort",
				func(rs metrics.ReceiverStats) bool { return rs.Active })
		}
		if st := e.Session(id).Stats(); st.Cohorts != 2 {
			t.Fatalf("session %d runs %d cohorts, want 2", id, st.Cohorts)
		}
	}

	// Each session's sender feeds its next frame once the trunk has taken the
	// previous one, so the trunk sees every session's frames in order even
	// when several readers share the socket. EditSession splices a stage in
	// and out of every trunk meanwhile.
	var senders sync.WaitGroup
	for j, id := range ids {
		senders.Add(1)
		go func() {
			defer senders.Done()
			s := e.Session(id)
			for seq := uint64(1); seq <= frames; seq++ {
				sendPacket(t, clients[j], id, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: stamp(seq)})
				for deadline := time.Now().Add(5 * time.Second); s.counters.Packets.Load() < seq+1; time.Sleep(20 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Errorf("session %d: the trunk never took frame %d", id, seq)
						return
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	edits := make(chan int)
	go func() {
		n := 0
		defer func() { edits <- n }()
		for {
			for _, id := range ids {
				select {
				case <-done:
					return
				default:
				}
				if _, err := e.EditSession(id, "", compose.Insert("null", 0)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if _, err := e.EditSession(id, "", compose.Remove("null")); err != nil {
					t.Errorf("remove: %v", err)
					return
				}
				n += 2
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	senders.Wait()
	close(done)
	if n := <-edits; n == 0 {
		t.Error("no edit raced the traffic")
	}
	if t.Failed() {
		return
	}
	// Closing the sessions flushes what the delay stage and the FEC cohort
	// hold, from outside every reader batch.
	for _, id := range ids {
		if err := e.CloseSession(id); err != nil {
			t.Fatal(err)
		}
	}

	complete := func() bool {
		mu.Lock()
		defer mu.Unlock()
		for i := range rxs {
			for _, id := range ids {
				if len(data[key{i, id}]) < frames+1 {
					return false
				}
			}
		}
		return true
	}
	for deadline := time.Now().Add(5 * time.Second); !complete() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // a duplicate would land by now
	mu.Lock()
	defer mu.Unlock()
	for i := range rxs {
		for _, id := range ids {
			k := key{i, id}
			got := data[k]
			if len(got) != frames+1 {
				t.Errorf("receiver %d, session %d: %d data frames, want %d exactly once", i, id, len(got), frames+1)
			}
			for n, seq := range got {
				if seq != uint64(n) {
					t.Errorf("receiver %d, session %d: data frame %d is stamp %d: lost, duplicated or out of order", i, id, n, seq)
					break
				}
			}
			ps := parity[k]
			if i >= 2 && len(ps) == 0 {
				t.Errorf("receiver %d, session %d: no parity from the FEC cohort", i, id)
			}
			for n := 1; n < len(ps); n++ {
				if ps[n] <= ps[n-1] {
					t.Errorf("receiver %d, session %d: parity frame %d (group %d index %d) after group %d index %d",
						i, id, n, ps[n]>>8, ps[n]&0xff, ps[n-1]>>8, ps[n-1]&0xff)
					break
				}
			}
		}
	}
	if st := e.Stats(); st.WriteDrops != 0 {
		t.Errorf("WriteDrops = %d, want 0", st.WriteDrops)
	}
}

// TestOffBatchRunsShareFlushes: a run of frames one producer emits outside
// every reader batch is one batch, sent in one flush rather than one per
// frame — a late joiner's replay priming, and a session's retirement
// flushing what a timed stage holds.
func TestOffBatchRunsShareFlushes(t *testing.T) {
	const frames = 8
	settle := func(t *testing.T, sh *shard, writes uint64) uint64 {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); sh.counters.writes.Load() < writes; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d entries written, want %d", sh.counters.writes.Load(), writes)
			}
		}
		return sh.counters.flushes.Load()
	}
	readN := func(t *testing.T, c *net.UDPConn, n int) {
		t.Helper()
		buf := make([]byte, packet.MaxDatagram)
		for got := 0; got < n; got++ {
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := c.Read(buf); err != nil {
				t.Fatalf("read %d of %d datagrams: %v", got, n, err)
			}
		}
	}

	t.Run("replay-priming", func(t *testing.T) {
		rxA, rxB := listenReceiver(t), listenReceiver(t)
		e := newTestEngine(t, Config{Shards: 1, Chain: "replay=16", Fanout: []string{rxA.LocalAddr().String()}})
		sh := &e.shards[0]
		c := dialEngine(t, e)
		const id = 7
		for seq := uint64(0); seq < frames; seq++ {
			sendPacket(t, c, id, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte{byte(seq)}})
		}
		readN(t, rxA, frames)
		before := settle(t, sh, frames)
		// The join is reconciled from this goroutine, outside every batch.
		e.FanoutGroup().Add(rxB.LocalAddr().(*net.UDPAddr).AddrPort())
		e.Session(id).cs.Load().tree.reconcile()
		readN(t, rxB, frames)
		if got := settle(t, sh, 2*frames) - before; got != 1 {
			t.Fatalf("priming %d frames took %d flushes, want 1", frames, got)
		}
	})

	t.Run("retirement", func(t *testing.T) {
		e := newTestEngine(t, Config{Shards: 1, Chain: "delay=1m"})
		sh := &e.shards[0]
		c := dialEngine(t, e)
		const id = 8
		for seq := uint64(0); seq < frames; seq++ {
			sendPacket(t, c, id, &packet.Packet{Seq: seq, Kind: packet.KindData, Payload: []byte{byte(seq)}})
		}
		for deadline := time.Now().Add(5 * time.Second); e.Session(id) == nil || e.Session(id).counters.Packets.Load() < frames; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the trunk never took every frame")
			}
		}
		before := sh.counters.flushes.Load()
		if err := e.CloseSession(id); err != nil {
			t.Fatal(err)
		}
		readN(t, c, frames)
		if got := settle(t, sh, frames) - before; got != 1 {
			t.Fatalf("retiring a trunk holding %d frames took %d flushes, want 1", frames, got)
		}
	})
}
