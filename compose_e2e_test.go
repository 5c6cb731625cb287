package rapidware

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rapidware/internal/compose"
	"rapidware/internal/control"
	"rapidware/internal/engine"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// TestLiveRecomposeNoDataLoss is the composition plane's end-to-end
// acceptance: a client streams sequence-numbered datagrams through a live
// engine session while the control plane recomposes the session's chain over
// and over — full rewrites through rapidctl's wire path (OpRecompose), plus
// single-stage insert/remove/move — and every relayed packet must still
// arrive. A splice swaps the chain's stage slice under its lock, so it never
// drops.
func TestLiveRecomposeNoDataLoss(t *testing.T) {
	eng, err := engine.New(engine.Config{ListenAddr: "127.0.0.1:0", Chain: "counting"})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	srv := control.NewServer(nil)
	srv.SetSessionSource(eng)
	ctlAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctl, err := control.Dial(ctlAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	conn, err := net.DialUDP("udp", nil, eng.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const (
		sessionID = 42
		total     = 400
	)
	send := func(seq uint64) {
		dgram, err := packet.AppendDatagram(nil, sessionID, &packet.Packet{
			Seq: seq, StreamID: sessionID, Kind: packet.KindData, Payload: []byte("composable"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(dgram); err != nil {
			t.Fatal(err)
		}
	}

	// Open the session and confirm the relay path before the storm.
	send(0)
	buf := make([]byte, packet.MaxDatagram)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err != nil {
		t.Fatalf("session never opened: %v", err)
	}

	// Reader: collect every echoed sequence number.
	got := make(map[uint64]bool, total)
	var mu sync.Mutex
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		rbuf := make([]byte, packet.MaxDatagram)
		for {
			conn.SetReadDeadline(time.Now().Add(3 * time.Second))
			n, err := conn.Read(rbuf)
			if err != nil {
				return // quiet for 3s: the stream (and its tail) has drained
			}
			if _, frame, err := packet.SplitSessionID(rbuf[:n]); err == nil {
				if p, _, err := packet.Unmarshal(frame); err == nil && p.Kind == packet.KindData {
					mu.Lock()
					if p.Seq >= 1 { // seq 0 was the opener
						got[p.Seq] = true
					}
					done := len(got) == total
					mu.Unlock()
					if done {
						return
					}
				}
			}
		}
	}()

	// Recomposer: rewrite the live chain through the control plane while the
	// stream flows, exercising instance reuse, growth, shrink-to-relay and
	// single-stage plan edits.
	recomposerDone := make(chan struct{})
	go func() {
		defer close(recomposerDone)
		steps := []func() (string, error){
			func() (string, error) { return ctl.Compose(sessionID, "", "counting,checksum") },
			func() (string, error) { return ctl.SessionInsert(sessionID, "", "delay=1ms", 2) },
			func() (string, error) { return ctl.SessionMove(sessionID, "", 2, 0) },
			func() (string, error) { return ctl.SessionRemove(sessionID, "", "delay") },
			func() (string, error) { return ctl.Compose(sessionID, "", "") },
			func() (string, error) { return ctl.Compose(sessionID, "", "checksum,null,counting") },
			func() (string, error) { return ctl.Compose(sessionID, "", "counting") },
		}
		for i, step := range steps {
			time.Sleep(25 * time.Millisecond)
			if _, err := step(); err != nil {
				t.Errorf("recompose step %d: %v", i, err)
				return
			}
		}
	}()

	for seq := uint64(1); seq <= total; seq++ {
		send(seq)
		time.Sleep(500 * time.Microsecond)
	}
	<-recomposerDone
	<-readerDone

	mu.Lock()
	defer mu.Unlock()
	if len(got) != total {
		missing := make([]uint64, 0, 8)
		for seq := uint64(1); seq <= total && len(missing) < 8; seq++ {
			if !got[seq] {
				missing = append(missing, seq)
			}
		}
		t.Fatalf("relayed-data loss across recompositions: %d/%d echoed, first missing %v",
			len(got), total, missing)
	}

	// The final plan is visible through the sessions listing.
	sessions, err := ctl.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || sessions[0].Chain != "counting" || len(sessions[0].Stages) != 1 {
		t.Fatalf("final session view = %+v", sessions)
	}
	if st := sessions[0].Stages[0]; !st.Active || st.InBytes == 0 {
		t.Fatalf("final stage view = %+v", st)
	}
}

// TestEditsAcrossTargets runs the control plane's four edits through
// Server.Handle against every kind of chain an edit can address — an engine
// session's trunk, one fan-out receiver's branch, and a stream session — and
// checks each target's rejections: a stage outside its dialect, a receiver it
// does not have, an address that does not parse.
func TestEditsAcrossTargets(t *testing.T) {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	receiver := rx.LocalAddr().(*net.UDPAddr).AddrPort().String()
	eng, err := engine.New(engine.Config{
		ListenAddr: "127.0.0.1:0",
		Chain:      "counting",
		Branch:     "fec-adapt",
		Fanout:     []string{receiver},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	conn, err := net.DialUDP("udp", nil, eng.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dgram, err := packet.AppendDatagram(nil, 5, &packet.Packet{Kind: packet.KindData, Payload: []byte("open")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(dgram); err != nil {
		t.Fatal(err)
	}
	rx.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := rx.Read(make([]byte, packet.MaxDatagram)); err != nil {
		t.Fatalf("session 5 never reached its receiver: %v", err)
	}
	engSrv := control.NewServer(nil)
	engSrv.SetSessionSource(eng)

	plan, err := compose.Parse("counting", compose.ModeChain)
	if err != nil {
		t.Fatal(err)
	}
	live, err := compose.Attach(filter.NewFrameChain(func(*packet.Buf) {}), compose.Default(), compose.Env{StreamID: 1}, compose.ModeChain, plan)
	if err != nil {
		t.Fatal(err)
	}
	streamSrv := control.NewServer(nil)
	streamSrv.SetSessionSource(compose.NewStreamSession(live))

	type step struct {
		req  control.Request // Session, and Receiver when empty, come from the target
		want string          // the chain after the edit; with fail, a substring of the error
		fail bool
	}
	chainSteps := []step{
		{control.Request{Op: control.OpInsert, Stage: "checksum", Position: 0}, "checksum,counting", false},
		{control.Request{Op: control.OpMove, Position: 0, Target: 1}, "counting,checksum", false},
		{control.Request{Op: control.OpRemove, Stage: "checksum"}, "counting", false},
		{control.Request{Op: control.OpRecompose, Chain: "counting,thin=2"}, "counting,thin=2", false},
		{control.Request{Op: control.OpInsert, Stage: compose.KindFECAdapt, Position: 0}, "branch-only", true},
	}
	targets := []struct {
		name     string
		srv      *control.Server
		session  string
		receiver string
		steps    []step
	}{
		{"engine trunk", engSrv, "5", "", chainSteps},
		{"engine branch", engSrv, "5", receiver, []step{
			{control.Request{Op: control.OpInsert, Stage: "counting", Position: 1}, "fec-adapt,counting", false},
			{control.Request{Op: control.OpInsert, Stage: "checksum", Position: 0}, "checksum,fec-adapt,counting", false},
			{control.Request{Op: control.OpMove, Position: 0, Target: 2}, "fec-adapt,counting,checksum", false},
			{control.Request{Op: control.OpRemove, Stage: "counting"}, "fec-adapt,checksum", false},
			{control.Request{Op: control.OpRecompose, Chain: "thin=2,fec-adapt"}, "thin=2,fec-adapt", false},
			{control.Request{Op: control.OpInsert, Stage: "fec-decode", Position: 0}, "chain-only", true},
			{control.Request{Op: control.OpRemove, Stage: "0", Receiver: "127.0.0.1:1"}, "no branch for receiver", true},
			{control.Request{Op: control.OpRemove, Stage: "0", Receiver: "not-an-address"}, "receiver", true},
		}},
		{"stream", streamSrv, "1", "", append(chainSteps,
			step{control.Request{Op: control.OpRemove, Stage: "0", Receiver: "10.0.0.1:9000"}, "no delivery branches", true},
		)},
	}
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			for i, st := range tg.steps {
				req := st.req
				req.Session = tg.session
				if req.Receiver == "" {
					req.Receiver = tg.receiver
				}
				resp := tg.srv.Handle(req)
				switch {
				case st.fail && (resp.OK || !strings.Contains(resp.Error, st.want)):
					t.Fatalf("step %d %s: %+v, want an error containing %q", i, req.Op, resp, st.want)
				case !st.fail && (!resp.OK || resp.Chain != st.want):
					t.Fatalf("step %d %s: %+v, want chain %q", i, req.Op, resp, st.want)
				}
			}
		})
	}
}
