// Collaborative session example: the Pavilion substrate the paper builds on,
// plus the proxy engine serving the session's media stream to heterogeneous
// receivers. An instructor leads a collaborative browsing session; URL loads
// are fetched through a caching proxy (so repeated visits are served from the
// cache, as for memory-limited handhelds) and recorded at every participant.
// Floor control passes leadership between participants. The second half
// streams session audio through a proxy engine whose delivery tree gives each
// participant's wireless channel its own branch: a laptop near the access
// point and a palmtop at the edge of range report their own loss, and their
// branches converge to different (n,k) codes — the paper's heterogeneity
// claim, live.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	"rapidware/internal/cache"
	"rapidware/internal/engine"
	"rapidware/internal/packet"
	"rapidware/internal/session"
	"rapidware/internal/wireless"
)

func main() {
	collaborativeBrowsing()
	heterogeneousDelivery()
	lateJoinReplay()
}

// collaborativeBrowsing runs the Pavilion part: cached URL loads observed by
// every participant, with floor control.
func collaborativeBrowsing() {
	// A synthetic "web" stands in for the wired network content.
	fetchCount := 0
	web := func(url string) ([]byte, error) {
		fetchCount++
		return []byte(fmt.Sprintf("<html><body>content of %s</body></html>", url)), nil
	}
	// The leader's HTTP proxy caches objects on behalf of handheld clients.
	proxy, err := cache.NewProxy(1<<20, web)
	if err != nil {
		log.Fatal(err)
	}

	sess, err := session.New("distributed-systems-lecture", proxy.Get)
	if err != nil {
		log.Fatal(err)
	}

	// Participants join: the instructor first (and so holds the floor).
	if _, err := sess.Join("instructor"); err != nil {
		log.Fatal(err)
	}
	student1, _ := sess.Join("wireless-laptop")
	student2, _ := sess.Join("palmtop")
	fmt.Printf("session %q members: %v, leader: %s\n", "distributed-systems-lecture", sess.Members(), sess.Leader())

	// The instructor drives the browse; everyone observes the same pages.
	pages := []string{
		"http://course.example.edu/syllabus",
		"http://course.example.edu/lecture-9/proxy-filters",
		"http://course.example.edu/syllabus", // revisit: served from the cache
	}
	for _, url := range pages {
		if err := sess.LoadURL("instructor", url); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("loaded %d pages, %d fetched from the network, cache hit rate %.0f%%\n",
		len(pages), fetchCount, proxy.Cache().HitRate()*100)
	fmt.Printf("palmtop history: %d pages\n", len(student2.History()))

	// A student requests the floor; the instructor releases it.
	if err := sess.RequestFloor("wireless-laptop"); err != nil {
		log.Fatal(err)
	}
	if err := sess.ReleaseFloor("instructor"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("floor passed to: %s\n", sess.Leader())
	if err := sess.LoadURL("wireless-laptop", "http://course.example.edu/question-3"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("laptop-led page observed by everyone: %d entries in laptop history, %d in palmtop history\n",
		len(student1.History()), len(student2.History()))
}

// participant is one downstream station of the engine's fan-out group: a UDP
// socket plus a simulated wireless channel. Packets that reach the socket are
// "transmissions"; the loss model decides which ones the radio actually
// delivered, and the station reports its observed window upstream, exactly as
// a real receiver would.
type participant struct {
	name    string
	metres  float64
	conn    *net.UDPConn
	model   wireless.LossModel
	rng     *rand.Rand
	rcvd    uint32
	lost    uint32
	highest uint64
}

func (p *participant) observe(deadline time.Duration) {
	buf := make([]byte, packet.MaxDatagram)
	for {
		p.conn.SetReadDeadline(time.Now().Add(deadline))
		n, err := p.conn.Read(buf)
		if err != nil {
			return // stream over
		}
		_, frame, err := packet.SplitSessionID(buf[:n])
		if err != nil {
			continue
		}
		pkt, _, err := packet.Unmarshal(frame)
		if err != nil {
			continue
		}
		if pkt.Seq > p.highest {
			p.highest = pkt.Seq
		}
		if p.model.Lost(p.rng) {
			p.lost++
		} else {
			p.rcvd++
		}
	}
}

func (p *participant) report(engAddr *net.UDPAddr, sessionID uint32) {
	rep := packet.Report{HighestSeq: p.highest, Received: p.rcvd, Lost: p.lost, Window: p.rcvd + p.lost}
	dgram, err := packet.AppendReportDatagram(nil, sessionID, 0, 0, rep)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := p.conn.WriteToUDP(dgram, engAddr); err != nil {
		log.Fatal(err)
	}
}

// heterogeneousDelivery streams the session's media through the proxy engine:
// one fan-out session, two stations on very different simulated channels,
// per-receiver delivery branches converging to different (n,k).
func heterogeneousDelivery() {
	fmt.Println("\n--- heterogeneous delivery: one stream, per-receiver FEC ---")

	// The laptop sits near the access point, the palmtop at the edge of
	// range (the paper's walk-away scenario). Fixed seeds keep the demo
	// deterministic.
	stations := []*participant{
		{name: "wireless-laptop", metres: 10, model: wireless.NewDistanceLoss(10, 1.2), rng: rand.New(rand.NewSource(3))},
		{name: "palmtop", metres: 42, model: wireless.NewDistanceLoss(42, 1.2), rng: rand.New(rand.NewSource(2))},
	}
	fanout := make([]string, len(stations))
	for i, st := range stations {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			log.Fatal(err)
		}
		defer conn.Close()
		st.conn = conn
		fanout[i] = conn.LocalAddr().String()
	}

	eng, err := engine.New(engine.Config{
		ListenAddr: "127.0.0.1:0",
		Adapt:      true,
		Fanout:     fanout,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	engAddr := eng.LocalAddr().(*net.UDPAddr)

	// The instructor's media source: one audio-sized packet stream.
	src, err := net.DialUDP("udp", nil, engAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer src.Close()
	const sessionID = 1
	const packets = 100
	done := make(chan struct{}, len(stations))
	for _, st := range stations {
		go func(st *participant) {
			st.observe(300 * time.Millisecond)
			done <- struct{}{}
		}(st)
	}
	payload := make([]byte, 320)
	for seq := 1; seq <= packets; seq++ {
		dgram, err := packet.AppendDatagram(nil, sessionID, &packet.Packet{
			Seq: uint64(seq), StreamID: 1, Kind: packet.KindData, Payload: payload,
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := src.Write(dgram); err != nil {
			log.Fatal(err)
		}
		time.Sleep(time.Millisecond) // pace like a 320-byte audio stream
	}
	for range stations {
		<-done
	}

	// One observation window ends: every station reports its own channel.
	for _, st := range stations {
		st.report(engAddr, sessionID)
	}

	// The engine converges within the window: each branch follows its own
	// receiver, so the two stations end up under different codes.
	deadline := time.Now().Add(3 * time.Second)
	for {
		s := eng.Session(sessionID)
		if s != nil {
			st := s.Stats()
			reported := 0
			for _, rx := range st.Receivers {
				if rx.Reports > 0 {
					reported++
				}
			}
			if reported == len(stations) {
				fmt.Printf("session %d fans out to %d receivers through per-receiver branches:\n",
					st.ID, len(st.Receivers))
				for _, rx := range st.Receivers {
					code := "no FEC (pure relay)"
					if rx.Active {
						code = fmt.Sprintf("FEC (%d,%d)", rx.N, rx.K)
					}
					var name string
					for _, stn := range stations {
						if stn.conn.LocalAddr().String() == rx.Receiver {
							name = fmt.Sprintf("%s @ %.0fm", stn.name, stn.metres)
						}
					}
					fmt.Printf("  %-24s %-21s reported loss %5.1f%%  -> %s\n",
						name, rx.Receiver, rx.LossRate*100, code)
				}
				return
			}
		}
		if time.Now().After(deadline) {
			log.Fatal("branches never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// lateJoinReplay shows the cache-backed catch-up path: a student arrives ten
// minutes into the lecture. The session's trunk keeps a replay window of the
// most recent packets, and when the latecomer's delivery branch is built the
// engine primes it from that window — the new participant starts with the
// recent past instead of silence.
func lateJoinReplay() {
	fmt.Println("\n--- late join: replay window primes the newcomer's branch ---")

	const window = 32
	punctual, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		log.Fatal(err)
	}
	defer punctual.Close()

	eng, err := engine.New(engine.Config{
		ListenAddr: "127.0.0.1:0",
		Chain:      fmt.Sprintf("replay=%d", window),
		Fanout:     []string{punctual.LocalAddr().String()},
		Branch:     "null",
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	src, err := net.DialUDP("udp", nil, eng.LocalAddr().(*net.UDPAddr))
	if err != nil {
		log.Fatal(err)
	}
	defer src.Close()

	// The punctual student just drains their socket in the background.
	go func() {
		buf := make([]byte, packet.MaxDatagram)
		for {
			punctual.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := punctual.Read(buf); err != nil {
				return
			}
		}
	}()

	// The lecture has been streaming for a while: 100 packets so far, of
	// which the trunk retains the most recent `window`.
	const sessionID = 2
	const streamed = 100
	send := func(seq uint64) {
		dgram, err := packet.AppendDatagram(nil, sessionID, &packet.Packet{
			Seq: seq, StreamID: 1, Kind: packet.KindData, Payload: []byte("audio"),
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := src.Write(dgram); err != nil {
			log.Fatal(err)
		}
	}
	for seq := uint64(1); seq <= streamed; seq++ {
		send(seq)
		time.Sleep(200 * time.Microsecond)
	}

	// The latecomer joins; the next trunk packet reconciles the delivery tree
	// and primes their fresh branch from the replay window.
	late, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		log.Fatal(err)
	}
	defer late.Close()
	eng.FanoutGroup().Add(late.LocalAddr().(*net.UDPAddr).AddrPort())
	send(streamed + 1)

	lowest, highest, got := uint64(0), uint64(0), 0
	buf := make([]byte, packet.MaxDatagram)
	for {
		late.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		n, err := late.Read(buf)
		if err != nil {
			break
		}
		_, frame, err := packet.SplitSessionID(buf[:n])
		if err != nil {
			continue
		}
		pkt, _, err := packet.Unmarshal(frame)
		if err != nil {
			continue
		}
		if got == 0 || pkt.Seq < lowest {
			lowest = pkt.Seq
		}
		if pkt.Seq > highest {
			highest = pkt.Seq
		}
		got++
	}
	var primed uint64
	for _, rx := range eng.Session(sessionID).Stats().Receivers {
		primed += rx.Primed
	}
	fmt.Printf("latecomer joined at seq %d and immediately received %d packets (seqs %d..%d), %d of them replayed from the trunk's retained window\n",
		streamed+1, got, lowest, highest, primed)
}
