package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rapidware/bench/gen"
	"rapidware/bench/span"
	"rapidware/internal/netbatch"
	"rapidware/internal/packet"
)

// fanout is the generator side of fanout-mixed: one source lane that only
// sends, and w.Sinks sink sockets the proxy fans every frame out to. Every
// sink checks its own copy of every session's stream; the creditor sink
// returns the closed loop's credit to the source.
type fanout struct {
	w      gen.Workload
	tl     *timeline
	tmpl   [][]byte
	source *lane
	rr     int
	// sent[i] is how many frames of session i are on the wire; limit[i] is
	// how many of them count (everything, until the run ends and the tail
	// frames that flush the proxy's block encoder follow).
	sent, limit []atomic.Uint32
	credit      chan int
	sinks       []*sink
	sinkWG      sync.WaitGroup
	sinkErr     chan error
	tailSent    atomic.Bool
	stop        atomic.Bool
}

// sink is one downstream receiver: its socket, its goroutine's tally, and one
// stream oracle per session.
type sink struct {
	f        *fanout
	idx      int
	conn     *net.UDPConn
	bc       netbatch.Conn
	t        tally
	sess     []stream
	parity   uint64
	seen     atomic.Uint64 // data frames settled so far (set-up polls it)
	reports  uint64
	reportAt int64
	bufs     [][]byte
	msgs     []netbatch.Msg
}

// creditor is the sink whose arrivals free the source's window: the first
// lossy one. A frame is in flight until its slowest copy has landed, and the
// lossy cohort (a chain and an encoder) always trails the bypass lane.
// Crediting from a clean sink lets the source run at the bypass lane's pace
// and overflow the cohort chain's queue — the proxy then drops, by design.
const creditor = 1

// reportEvery is the receiver-report period of every sink.
const reportEvery = 500 * time.Millisecond

// newFanout opens the sink sockets; the proxy needs their addresses on its
// command line, so they exist before it does.
func newFanout(w gen.Workload, in *inputs, tl *timeline) (*fanout, error) {
	f := &fanout{
		w: w, tl: tl, tmpl: in.tmpl,
		sent: make([]atomic.Uint32, w.Sessions), limit: make([]atomic.Uint32, w.Sessions),
		// The creditor sends one credit message per read batch, and a batch
		// holds at least one of the at most w.Window frames in flight, so
		// w.Window slots never fill.
		credit:  make(chan int, w.Window),
		sinkErr: make(chan error, w.Sinks),
	}
	for i := range f.limit {
		f.limit[i].Store(math.MaxUint32)
	}
	for i := 0; i < w.Sinks; i++ {
		c, err := listenLoopback()
		if err != nil {
			f.close()
			return nil, err
		}
		s := &sink{
			f: f, idx: i, conn: c, bc: netbatch.New(c, netbatch.Options{GRO: true}),
			sess: make([]stream, w.Sessions),
			bufs: make([][]byte, netbatch.BatchSize), msgs: make([]netbatch.Msg, netbatch.BatchSize),
		}
		s.t.slices = make([]sliceStat, tl.nSlices())
		for j := range s.bufs {
			s.bufs[j] = make([]byte, 64<<10) // a GRO slot holds a whole coalesced run
		}
		f.sinks = append(f.sinks, s)
	}
	return f, nil
}

// addrs lists the sink addresses for the proxy's -fanout flag.
func (f *fanout) addrs() []string {
	out := make([]string, len(f.sinks))
	for i, s := range f.sinks {
		out[i] = s.conn.LocalAddr().String()
	}
	return out
}

// start binds the source lane to the proxy and launches the sink goroutines.
func (f *fanout) start(dst netip.AddrPort, tracer *span.Tracer) error {
	l, err := newLane(f.tl, dst, gen.PayloadOff+f.w.Payload, tracer)
	if err != nil {
		return err
	}
	f.source = l
	for _, s := range f.sinks {
		s.reportAt = f.tl.now() + int64(reportEvery)
		f.sinkWG.Add(1)
		go func() {
			defer f.sinkWG.Done()
			if err := s.run(dst); err != nil {
				f.sinkErr <- err
			}
		}()
	}
	return nil
}

// close stops the sinks and releases every socket.
func (f *fanout) close() {
	f.stop.Store(true)
	f.sinkWG.Wait()
	for _, s := range f.sinks {
		s.conn.Close()
	}
	if f.source != nil {
		f.source.conn.Close()
	}
}

// send puts k frames on the wire, sessions taking turns.
func (f *fanout) send(k int, now int64) error {
	for i := 0; i < k; i++ {
		gen.Stamp(f.source.stage(i, f.tmpl[f.rr]), f.sent[f.rr].Load(), now)
		f.sent[f.rr].Add(1)
		f.rr = (f.rr + 1) % len(f.sent)
	}
	return f.source.write(k)
}

// prime opens the sessions (one frame each, seen at every sink), has every
// sink describe its channel, and waits for the proxy's adaptation plane to
// settle into the two cohorts the workload is about.
func (f *fanout) prime(p *proxy) error {
	if err := f.send(len(f.sent), f.tl.now()); err != nil {
		return err
	}
	deadline := time.Now().Add(primeTimeout)
	for _, s := range f.sinks {
		for s.seen.Load() < uint64(len(f.sent)) {
			if time.Now().After(deadline) {
				return fmt.Errorf("priming: sink %d saw %d of %d sessions", s.idx, s.seen.Load(), len(f.sent))
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	for _, s := range f.sinks {
		if err := s.report(f.source.dst, 0, 0); err != nil {
			return err
		}
	}
	for {
		sessions, err := p.ctl.Sessions()
		if err != nil {
			return err
		}
		settled := len(sessions) == len(f.sent)
		for _, st := range sessions {
			active := 0
			for _, r := range st.Receivers {
				if r.Active {
					active++
				}
			}
			settled = settled && st.Cohorts == 2 && active == len(f.sinks)/2
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("priming: cohorts did not settle within %v", primeTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// run is the source's closed loop: w.Window frames in flight, credited by
// the creditor sink, until the timeline ends; then the tail.
func (f *fanout) run() error {
	l, tl, ph := f.source, f.tl, f.tl.at.Load()
	inflight := 0
	stall := time.NewTimer(stallLimit)
	defer stall.Stop()
	for {
		now := tl.now()
		if now >= ph.endNs {
			break
		}
		l.beginIteration(now, ph)
		for inflight < f.w.Window {
			k := min(netbatch.BatchSize, f.w.Window-inflight)
			if err := f.send(k, now); err != nil {
				return err
			}
			inflight += k
		}
		sp := l.tr.Begin("credit", "gen", l.it, l.iter)
		stall.Reset(stallLimit)
		select {
		case n := <-f.credit:
			inflight -= n
		case err := <-f.sinkErr:
			return err
		case <-stall.C:
			// The creditor heard nothing: the sinks' oracles will find what
			// was lost; here only the window is re-primed.
			inflight = 0
		}
		l.tr.End(sp)
		l.endIteration()
	}
	l.tr, l.it = nil, -1
	// Everything sent so far counts; the tail that follows only pushes the
	// last counted frames out of the lossy cohort's block encoder.
	for i := range f.sent {
		f.limit[i].Store(f.sent[i].Load())
	}
	if err := f.send(f.w.Tail*len(f.sent), tl.now()); err != nil {
		return err
	}
	f.tailSent.Store(true)
	return nil
}

// finish waits for the sinks to account for every counted frame (or gives up
// after a second), stops them, and writes off what never arrived.
func (f *fanout) finish() error {
	done := make(chan struct{})
	go func() { f.sinkWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
	}
	f.stop.Store(true)
	<-done
	for _, s := range f.sinks {
		for i := range s.sess {
			if limit := f.limit[i].Load(); s.sess[i].next < limit {
				s.t.lost += uint64(limit - s.sess[i].next)
			}
		}
		s.t.attempted = 0
		for i := range f.limit {
			s.t.attempted += uint64(f.limit[i].Load())
		}
	}
	select {
	case err := <-f.sinkErr:
		return err
	default:
		return nil
	}
}

func (s *sink) lossy() bool { return s.idx%2 == 1 }

// report sends this sink's receiver report for every session: odd sinks claim
// w.LossPct percent loss, even sinks a clean window.
func (s *sink) report(dst netip.AddrPort, seq, highest uint64) error {
	rep := packet.Report{Received: 100, Window: 100, HighestSeq: highest}
	if s.lossy() {
		lost := uint32(s.f.w.LossPct)
		rep.Received, rep.Lost = 100-lost, lost
	}
	for i := range s.sess {
		dgram, err := packet.AppendReportDatagram(nil, gen.FirstSession+uint32(i), seq, 0, rep)
		if err != nil {
			return err
		}
		if _, err := s.conn.WriteToUDPAddrPort(dgram, dst); err != nil {
			return err
		}
	}
	return nil
}

// settled reports whether every counted frame of every session is accounted
// for at this sink.
func (s *sink) settled() bool {
	for i := range s.sess {
		if s.sess[i].next < s.f.limit[i].Load() {
			return false
		}
	}
	return true
}

// run reads until the fan-out is stopped, or the tail is out and nothing
// counted is owed, checking every frame and reporting on schedule.
func (s *sink) run(dst netip.AddrPort) error {
	for !s.f.stop.Load() && !(s.f.tailSent.Load() && s.settled()) {
		for i := range s.msgs {
			s.msgs[i].Buf = s.bufs[i]
		}
		if err := s.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
			return err
		}
		n, err := s.bc.ReadBatch(s.msgs)
		if err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			return fmt.Errorf("sink %d: %w", s.idx, err)
		}
		now := s.f.tl.now()
		got := 0
		for i := 0; i < n; i++ {
			m := &s.msgs[i]
			seg := m.Seg
			if seg <= 0 {
				seg = m.N
			}
			for off := 0; off < m.N; off += seg {
				got += s.deliver(m.Buf[off:min(off+seg, m.N)], now)
			}
		}
		if got > 0 {
			s.seen.Add(uint64(got))
			if s.idx == creditor {
				select {
				case s.f.credit <- got:
				default: // only once the source has stopped listening
				}
			}
		}
		if now >= s.reportAt {
			s.reports++
			if err := s.report(dst, s.reports, uint64(s.sess[0].next)); err != nil {
				return err
			}
			s.reportAt = now + int64(reportEvery)
		}
	}
	return nil
}

// deliver checks one datagram and returns how many data frames it settles.
func (s *sink) deliver(dgram []byte, now int64) int {
	session, kind, payload, ok := frameOf(dgram)
	i := int(session) - gen.FirstSession
	if !ok || i < 0 || i >= len(s.sess) {
		s.t.stray++
		return 0
	}
	if kind != packet.KindData {
		s.parity++ // the lossy cohort's protection; not part of the stream
		return 0
	}
	tag, tagged := gen.ReadTag(payload)
	if !tagged {
		s.t.stray++
		return 0
	}
	st := &s.sess[i]
	st.sent = s.f.sent[i].Load()
	settled, good := st.check(&s.t, tag)
	if good && tag.Index < s.f.limit[i].Load() {
		s.t.good(s.f.tl, now, tag.StampNs, len(payload))
	}
	return settled
}
