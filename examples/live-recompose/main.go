// Live recomposition: insert a transcoder into a *running* engine session
// through the control plane — the paper's composable-proxy claim carried
// onto the multi-session engine — and watch the per-stage counters move.
//
// The walkthrough stands up a real engine and a real control server on
// loopback, streams paper-format audio packets through one session, and then
// drives the exact operations `rapidctl` would:
//
//	rapidctl sessions                              # see the live plan
//	rapidctl compose 7 'counting,transcode=2'      # splice a transcoder in
//	rapidctl -session 7 insert delay=2ms 2         # add a stage at position 2
//	rapidctl -session 7 remove delay               # and take it out again
//
// Every rewrite happens while datagrams are in flight; a splice swaps the
// chain's stage slice under the lock each frame takes, so it lands between
// two frames without dropping a relayed packet, and stages shared between the
// old and new plan (the counting stage here) keep their instances — watch its
// byte counter keep climbing across the rewrite.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"rapidware/internal/audio"
	"rapidware/internal/control"
	"rapidware/internal/engine"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
)

const sessionID = 7

func main() {
	// 1. A proxy engine with a counting trunk chain, plus its control plane.
	eng, err := engine.New(engine.Config{
		Name:       "live-recompose",
		ListenAddr: "127.0.0.1:0",
		Chain:      "counting",
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	srv := control.NewServer(nil)
	srv.SetSessionSource(eng)
	ctlAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// 2. A station streams paper-format audio packets through session 7 and
	// keeps draining the echoes.
	conn, err := net.DialUDP("udp", nil, eng.LocalAddr().(*net.UDPAddr))
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	stop := make(chan struct{})
	go func() {
		payload := make([]byte, audio.PaperFormat().BytesPerSecond()/50) // 20ms of audio
		for seq := uint64(0); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			dgram, err := packet.AppendDatagram(nil, sessionID, &packet.Packet{
				Seq: seq, StreamID: sessionID, Kind: packet.KindData, Payload: payload,
			})
			if err != nil {
				return
			}
			conn.Write(dgram)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	go func() {
		buf := make([]byte, packet.MaxDatagram)
		for {
			conn.SetReadDeadline(time.Now().Add(time.Second))
			if _, err := conn.Read(buf); err != nil {
				select {
				case <-stop:
					return
				default:
				}
			}
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the session open and warm up

	// 3. The ControlManager side: what rapidctl does over the wire.
	ctl, err := control.Dial(ctlAddr, time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer ctl.Close()

	showSession(ctl, "initial plan")

	// Insert a 2:1 transcoder into the live chain — a full recompose to the
	// target plan. The counting stage is in both plans, so its instance (and
	// its counters) carry over untouched.
	chain, err := ctl.Compose(sessionID, "", "counting,transcode=2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n--> rapidctl compose %d 'counting,transcode=2'\n    chain now: %s\n", sessionID, chain)
	time.Sleep(100 * time.Millisecond)
	showSession(ctl, "after transcoder insertion (counting kept its counters)")

	// Single-stage operations address plan positions.
	if _, err := ctl.SessionInsert(sessionID, "", "delay=2ms", 2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n--> rapidctl -session %d insert delay=2ms 2\n", sessionID)
	time.Sleep(60 * time.Millisecond)
	showSession(ctl, "with a delay stage at position 2")

	if _, err := ctl.SessionRemove(sessionID, "", "delay"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n--> rapidctl -session %d remove delay\n", sessionID)
	time.Sleep(60 * time.Millisecond)
	showSession(ctl, "final plan")

	close(stop)
	fmt.Println("\nEvery rewrite happened mid-stream; no relayed packet was dropped.")
}

// showSession renders what `rapidctl sessions` shows for our session: the
// canonical plan and the per-stage counters.
func showSession(ctl *control.Client, label string) {
	sessions, err := ctl.Sessions()
	if err != nil {
		log.Fatal(err)
	}
	var st *metrics.SessionStats
	for i := range sessions {
		if sessions[i].ID == sessionID {
			st = &sessions[i]
		}
	}
	if st == nil {
		log.Fatalf("session %d not live", sessionID)
	}
	fmt.Printf("\n%s\n", label)
	fmt.Printf("  session %d: in %d pkts / %d B, out %d pkts / %d B, chain %q\n",
		st.ID, st.Packets, st.Bytes, st.OutPackets, st.OutBytes, st.Chain)
	for i, stage := range st.Stages {
		state := "idle"
		if stage.Active {
			state = "active"
		}
		fmt.Printf("   [%d] %-14s %-14s %-6s in %-8d out %d\n",
			i, stage.Spec, stage.Name, state, stage.InBytes, stage.OutBytes)
	}
}
