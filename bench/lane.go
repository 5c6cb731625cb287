package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync/atomic"
	"time"

	"rapidware/bench/gen"
	"rapidware/bench/span"
	"rapidware/internal/netbatch"
	"rapidware/internal/packet"
)

// timeline places a run's phases on the harness clock (ns since epoch):
// warm-up from t0, the measured window from winNs, an optional traced window
// from traceNs, everything over at endNs. Samples are binned into one-second
// slices counted from t0; a metric is the median over its window's slices, so
// one disturbed second on a shared host does not move it.
type timeline struct {
	epoch                  time.Time
	warmup, window, traced time.Duration // whole seconds

	// at is swapped whole, once set-up is over: the fan-out's sink goroutines
	// are already reading it by then.
	at atomic.Pointer[phases]
}

// phases are a timeline's boundaries on the harness clock.
type phases struct{ t0, winNs, traceNs, endNs int64 }

func (tl *timeline) now() int64 { return int64(time.Since(tl.epoch)) }

// start pins the phases to the clock, warm-up beginning at t0.
func (tl *timeline) start(t0 int64) {
	p := &phases{t0: t0, winNs: t0 + int64(tl.warmup)}
	p.traceNs = p.winNs + int64(tl.window)
	p.endNs = p.traceNs + int64(tl.traced)
	tl.at.Store(p)
}

// slice returns the one-second slice holding instant ns, or -1 before t0 and
// after the last slice.
func (tl *timeline) slice(ns int64) int {
	p := tl.at.Load()
	if ns < p.t0 || ns >= p.endNs {
		return -1
	}
	return int((ns - p.t0) / int64(time.Second))
}

func (tl *timeline) nSlices() int {
	return int((tl.warmup + tl.window + tl.traced) / time.Second)
}

// sliceStat is what one goroutine saw come back during one slice.
type sliceStat struct {
	frames uint64 // verified data frames
	bytes  uint64 // their payload bytes
	rtt    hist
	// firstNs and lastNs are the slice's first and last arrival. Rates are
	// taken over that span, not the nominal second, so an open loop's
	// delivered rate is a measurement and not a restatement of its schedule.
	firstNs, lastNs int64
}

// tally is one goroutine's share of a run's results. Nothing in it is shared
// while the run is live; the reporter merges tallies afterwards.
type tally struct {
	slices []sliceStat

	// attempted counts the data frames offered that must come back; the
	// rest are the ways one can fail to come back exactly once, in order,
	// intact.
	attempted, lost, dup, corrupt, stray uint64

	late hist // open-loop schedules: send time minus due time
}

func (t *tally) failed() uint64 { return t.lost + t.dup + t.corrupt + t.stray }

// good records one verified frame that arrived at now and was sent at sentNs.
func (t *tally) good(tl *timeline, now, sentNs int64, payloadLen int) {
	if s := tl.slice(now); s >= 0 {
		st := &t.slices[s]
		if st.frames == 0 {
			st.firstNs = now
		}
		st.lastNs = now
		st.frames++
		st.bytes += uint64(payloadLen)
		st.rtt.add(now - sentNs)
	}
}

// stallLimit is how long a closed loop waits on silence before it writes its
// outstanding frames off as lost and re-primes the window.
const stallLimit = 250 * time.Millisecond

// lane is one load socket and the goroutine that both sends on it and reads
// its echoes. Workload kinds differ in what they send and how they check
// what returns; that part is the lane's driver.
type lane struct {
	tl   *timeline
	conn *net.UDPConn
	bc   netbatch.Conn
	dst  netip.AddrPort
	t    tally

	wbufs [netbatch.BatchSize][]byte
	wmsgs [netbatch.BatchSize]netbatch.Msg
	rbufs [netbatch.BatchSize][]byte
	rmsgs [netbatch.BatchSize]netbatch.Msg

	// tracer is armed at tl.traceNs (nil on untraced runs); tr is nil until
	// then, so the measured window never pays for spans.
	tracer, tr *span.Tracer
	iter, it   int // current iteration number and its span
}

// driver is the workload-specific half of a lane.
type driver interface {
	// prime opens the lane's sessions during set-up and returns once every
	// one has answered.
	prime() error
	// fill sends whatever the loop model allows at now and returns how long
	// the following read may block.
	fill(now int64) (wait time.Duration, err error)
	// deliver checks one datagram that came back.
	deliver(dgram []byte, now int64)
	// idle runs after a read that returned nothing.
	idle(now int64)
	// drain runs once after the clock stops: flush, collect stragglers, and
	// write off what never returned.
	drain() error
}

// listenLoopback opens one generator socket with the receive buffer the
// kernel will grant (8 MiB asked; net.core.rmem_max caps it).
func listenLoopback() (*net.UDPConn, error) {
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	_ = c.SetReadBuffer(8 << 20) // advisory: the kernel clamps it
	return c, nil
}

func newLane(tl *timeline, dst netip.AddrPort, maxDgram int, tracer *span.Tracer) (*lane, error) {
	c, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	l := &lane{tl: tl, conn: c, bc: netbatch.New(c, netbatch.Options{}), dst: dst, tracer: tracer}
	l.t.slices = make([]sliceStat, tl.nSlices())
	for i := range l.wbufs {
		l.wbufs[i] = make([]byte, maxDgram)
		l.rbufs[i] = make([]byte, packet.MaxDatagram)
	}
	return l, nil
}

// stage copies a template datagram into write slot i and returns the copy for
// stamping; one session may then appear several times in a batch.
func (l *lane) stage(i int, tmpl []byte) []byte {
	buf := l.wbufs[i][:len(tmpl)]
	copy(buf, tmpl)
	l.wmsgs[i] = netbatch.Msg{Buf: buf, Addr: l.dst}
	return buf
}

// write sends the first k staged datagrams. A send error on loopback means
// the run's inputs never reached the proxy, so it is fatal, not a sample.
func (l *lane) write(k int) error {
	sp := l.tr.Begin("WriteBatch", "netbatch", l.it, l.iter)
	defer l.tr.End(sp)
	for sent := 0; sent < k; {
		n, err := l.bc.WriteBatch(l.wmsgs[sent:k])
		if err != nil {
			return fmt.Errorf("send to proxy: %w", err)
		}
		sent += n
	}
	return nil
}

// read blocks up to wait for a batch of datagrams and returns how many came.
func (l *lane) read(wait time.Duration) (int, error) {
	if wait <= 0 {
		return 0, nil
	}
	sp := l.tr.Begin("ReadBatch", "netbatch", l.it, l.iter)
	defer l.tr.End(sp)
	for i := range l.rmsgs {
		l.rmsgs[i].Buf = l.rbufs[i]
	}
	if err := l.conn.SetReadDeadline(time.Now().Add(wait)); err != nil {
		return 0, err
	}
	n, err := l.bc.ReadBatch(l.rmsgs[:])
	if err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		return 0, fmt.Errorf("read from proxy: %w", err)
	}
	return n, nil
}

// pump is one send-then-read round shared by the run loop, priming and
// draining: it reads for up to wait and hands every datagram to the driver.
func (l *lane) pump(d driver, wait time.Duration) (int, error) {
	n, err := l.read(wait)
	if err != nil {
		return 0, err
	}
	now := l.tl.now()
	sp := l.tr.Begin("verify", "gen", l.it, l.iter)
	for i := 0; i < n; i++ {
		d.deliver(l.rmsgs[i].Buf[:l.rmsgs[i].N], now)
	}
	l.tr.End(sp)
	if n == 0 {
		d.idle(now)
	}
	return n, nil
}

// run drives d until the timeline ends, then drains.
func (l *lane) run(d driver) error {
	ph := l.tl.at.Load()
	for {
		now := l.tl.now()
		if now >= ph.endNs {
			break
		}
		l.beginIteration(now, ph)
		wait, err := d.fill(now)
		if err == nil {
			_, err = l.pump(d, wait)
		}
		l.endIteration()
		if err != nil {
			return err
		}
	}
	l.tr, l.it = nil, -1
	return d.drain()
}

// beginIteration opens one loop iteration's span, arming the tracer the first
// time the traced window has begun.
func (l *lane) beginIteration(now int64, ph *phases) {
	if l.tr == nil && l.tracer != nil && now >= ph.traceNs {
		l.tr = l.tracer
	}
	l.it = l.tr.Begin("iteration", "gen", -1, l.iter)
}

func (l *lane) endIteration() {
	l.tr.End(l.it)
	l.iter++
}

// frameOf splits a returned datagram into session, frame kind and payload.
func frameOf(dgram []byte) (session uint32, kind packet.Kind, payload []byte, ok bool) {
	if len(dgram) < gen.PayloadOff {
		return 0, 0, nil, false
	}
	frame := dgram[packet.SessionIDSize:]
	if packet.ValidateFrame(frame) != nil {
		return 0, 0, nil, false
	}
	return binary.BigEndian.Uint32(dgram), packet.FrameKind(frame), dgram[gen.PayloadOff:], true
}

// stream is the oracle for one in-order stream of tagged frames: every index
// from 0 must arrive exactly once, in order, intact.
type stream struct {
	sent uint32 // frames offered so far; also the next index to send
	next uint32 // next index owed
}

// check classifies one arrival against the stream's order and returns how
// many frames it settles (the arrival itself plus any it proves lost).
func (s *stream) check(t *tally, tag gen.Tag) (settled int, inOrder bool) {
	switch {
	case tag.Index >= s.sent || tag.Index < s.next:
		// Never sent, or already settled: a duplicate or a late arrival.
		t.dup++
		return 0, false
	case tag.Index > s.next:
		gap := tag.Index - s.next
		t.lost += uint64(gap)
		settled = int(gap)
	}
	s.next = tag.Index + 1
	if !tag.Intact {
		t.corrupt++
		return settled + 1, false
	}
	return settled + 1, true
}

// writeOff counts everything still owed as lost.
func (s *stream) writeOff(t *tally) (settled int) {
	settled = int(s.sent - s.next)
	t.lost += uint64(settled)
	s.next = s.sent
	return settled
}

// echoDriver is the closed loop of relay-small, chain-deep and
// recompose-live: window frames in flight over the lane's sessions, each
// frame echoed to this socket.
type echoDriver struct {
	l        *lane
	first    uint32 // session ID of sess[0]; IDs step by stride
	stride   uint32
	tmpl     [][]byte
	sess     []stream
	window   int
	inflight int
	rr       int
}

func (e *echoDriver) fill(now int64) (time.Duration, error) {
	for e.inflight < e.window {
		k := min(netbatch.BatchSize, e.window-e.inflight)
		for i := 0; i < k; i++ {
			s := &e.sess[e.rr]
			gen.Stamp(e.l.stage(i, e.tmpl[e.rr]), s.sent, now)
			s.sent++
			e.rr = (e.rr + 1) % len(e.sess)
		}
		if err := e.l.write(k); err != nil {
			return 0, err
		}
		e.inflight += k
		e.l.t.attempted += uint64(k)
	}
	return stallLimit, nil
}

func (e *echoDriver) deliver(dgram []byte, now int64) {
	session, kind, payload, ok := frameOf(dgram)
	i, mine := owns(session, e.first, e.stride, len(e.sess))
	tag, tagged := gen.ReadTag(payload)
	if !ok || !mine || kind != packet.KindData || !tagged {
		e.l.t.stray++
		return
	}
	settled, good := e.sess[i].check(&e.l.t, tag)
	e.inflight -= settled
	if good {
		e.l.t.good(e.l.tl, now, tag.StampNs, len(payload))
	}
}

func (e *echoDriver) idle(int64) {
	for i := range e.sess {
		e.inflight -= e.sess[i].writeOff(&e.l.t)
	}
}

func (e *echoDriver) prime() error {
	// One frame per session, at most a batch in flight.
	for next := 0; next < len(e.sess) || e.inflight > 0; {
		k := min(netbatch.BatchSize-e.inflight, len(e.sess)-next)
		for i := 0; i < k; i++ {
			s := &e.sess[next+i]
			gen.Stamp(e.l.stage(i, e.tmpl[next+i]), s.sent, e.l.tl.now())
			s.sent++
		}
		if k > 0 {
			if err := e.l.write(k); err != nil {
				return err
			}
			next += k
			e.inflight += k
			e.l.t.attempted += uint64(k)
		}
		if n, err := e.l.pump(e, primeTimeout); err != nil {
			return err
		} else if n == 0 {
			return fmt.Errorf("priming: proxy echoed nothing for %v", primeTimeout)
		}
	}
	return nil
}

// primeTimeout bounds each wait for a set-up echo.
const primeTimeout = 5 * time.Second

func (e *echoDriver) drain() error {
	for e.inflight > 0 {
		if n, err := e.l.pump(e, stallLimit); err != nil || n == 0 {
			return err // idle() has written the rest off
		}
	}
	return nil
}

// inputs are a run's seeded datagrams, built once before set-up is timed and
// shared (read-only, except for in-place header stamps by the one lane that
// owns a session) by every proxy incarnation of the run.
type inputs struct {
	tmpl  [][]byte      // per session, by index from gen.FirstSession
	pools [][]gen.Group // FEC workloads: per session, the pre-encoded groups
}

// fecSlots is how many distinct pre-encoded groups each FEC session cycles
// through: far more than are ever in flight, so a returned payload's slot
// names its group unambiguously.
const fecSlots = 64

func prepare(w gen.Workload, seed int64) (*inputs, error) {
	in := &inputs{}
	n := w.Sessions + w.Resident
	for i := 0; i < n; i++ {
		tmpl, err := gen.Datagram(seed, gen.FirstSession+uint32(i), w.Payload)
		if err != nil {
			return nil, err
		}
		in.tmpl = append(in.tmpl, tmpl)
	}
	if w.Kind == gen.FEC {
		for i := 0; i < w.Sessions; i++ {
			pool, err := gen.GroupPool(seed, gen.FirstSession+uint32(i), w.Payload, fecSlots, w.Code)
			if err != nil {
				return nil, err
			}
			in.pools = append(in.pools, pool)
		}
	}
	return in, nil
}

// owns maps a session ID to its index among a lane's sessions, which are
// first, first+stride, ... (n of them).
func owns(session, first, stride uint32, n int) (int, bool) {
	i := session - first
	if i%stride != 0 || int(i/stride) >= n {
		return 0, false
	}
	return int(i / stride), true
}

// newEchoDrivers builds one driver per lane for an echo workload, sessions
// dealt round-robin over the lanes.
func newEchoDrivers(w gen.Workload, in *inputs, lanes []*lane) []driver {
	drivers := make([]driver, len(lanes))
	for j, l := range lanes {
		e := &echoDriver{
			l: l, first: gen.FirstSession + uint32(j), stride: uint32(len(lanes)),
			window: w.Window / len(lanes),
		}
		for i := j; i < w.Sessions; i += len(lanes) {
			e.tmpl = append(e.tmpl, in.tmpl[i])
		}
		e.sess = make([]stream, len(e.tmpl))
		drivers[j] = e
	}
	return drivers
}
