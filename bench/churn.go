package main

import (
	"fmt"
	"time"

	"rapidware/bench/gen"
	"rapidware/internal/netbatch"
)

// schedule is an open-loop event train: event k is due at start + k*period,
// and k is the first event not yet sent.
type schedule struct {
	start, period int64
	k             int64
}

func (s *schedule) due() int64 { return s.start + s.k*s.period }

// churnDriver is the open loop of session-churn. Three schedules run on each
// lane: touches of hot residents (each one every hotEvery, so it stays
// live), touches of cold residents (each one every coldEvery, far beyond the
// proxy's idle TTL, so it is always parked when touched), and opens of
// never-seen session IDs. Every frame is timed from the instant it was due,
// not the instant it was sent, so a generator or proxy stall shows up as
// latency in the frames queued behind it.
type churnDriver struct {
	l      *lane
	w      gen.Workload
	seed   int64
	tmpl   [][]byte // residents: hot first, then cold
	sess   []stream
	first  uint32
	stride uint32
	nHot   int
	lane   int // this lane's position among the workload's sockets

	ph              *phases // set by arm
	hot, cold, open schedule

	// Never-seen sessions: IDs from newFirst, step stride. Each gets
	// w.OpenFrames frames, the next sent when the previous one's echo arrives.
	newFirst  uint32
	fresh     []stream
	freshTmpl [][]byte // kept until the session's last frame is out
	followUp  []uint32 // fresh sessions whose next frame is ready to go

	openRTT, unparkRTT hist // window-only, from due time
	coldTouches        uint64
	staged             int
}

const (
	hotEvery  = 500 * time.Millisecond
	coldEvery = 4 * time.Second
	// coldStart delays the first cold touch past the longest time the proxy
	// can take to park a session after set-up's priming touch: the idle TTL
	// plus two maintenance ticks (TTL/4 each), 3 s for -idle-ttl 2s.
	coldStart = 3200 * time.Millisecond
)

// lookup finds a session's stream among the residents or the fresh sessions.
func (c *churnDriver) lookup(session uint32) (s *stream, isFresh, mine bool) {
	set, first, isFresh := c.sess, c.first, false
	if session >= c.newFirst {
		set, first, isFresh = c.fresh, c.newFirst, true
	}
	i, ok := owns(session, first, c.stride, len(set))
	if !ok {
		return nil, false, false
	}
	return &set[i], isFresh, true
}

// stageFrame stages session stream s's next frame, stamped with its due time.
func (c *churnDriver) stageFrame(s *stream, tmpl []byte, due int64) error {
	if c.staged == netbatch.BatchSize {
		if err := c.flush(); err != nil {
			return err
		}
	}
	gen.Stamp(c.l.stage(c.staged, tmpl), s.sent, due)
	s.sent++
	c.staged++
	c.l.t.attempted++
	return nil
}

func (c *churnDriver) flush() error {
	if c.staged == 0 {
		return nil
	}
	k := c.staged
	c.staged = 0
	return c.l.write(k)
}

func (c *churnDriver) fill(now int64) (time.Duration, error) {
	for _, i := range c.followUp {
		if err := c.stageFrame(&c.fresh[i], c.freshTmpl[i], now); err != nil {
			return 0, err
		}
		if int(c.fresh[i].sent) == c.w.OpenFrames {
			c.freshTmpl[i] = nil
		}
	}
	c.followUp = c.followUp[:0]
	for ; c.hot.due() <= now; c.hot.k++ {
		i := int(c.hot.k) % c.nHot
		if err := c.stageDue(&c.sess[i], c.tmpl[i], c.hot.due(), now); err != nil {
			return 0, err
		}
	}
	for ; c.cold.due() <= now; c.cold.k++ {
		i := c.nHot + int(c.cold.k)%(len(c.sess)-c.nHot)
		c.coldTouches++
		if err := c.stageDue(&c.sess[i], c.tmpl[i], c.cold.due(), now); err != nil {
			return 0, err
		}
	}
	for ; c.open.due() <= now; c.open.k++ {
		i := len(c.fresh)
		tmpl, err := gen.Datagram(c.seed, c.newFirst+uint32(i)*c.stride, c.w.Payload)
		if err != nil {
			return 0, err
		}
		c.fresh, c.freshTmpl = append(c.fresh, stream{}), append(c.freshTmpl, tmpl)
		if err := c.stageDue(&c.fresh[i], tmpl, c.open.due(), now); err != nil {
			return 0, err
		}
	}
	if err := c.flush(); err != nil {
		return 0, err
	}
	next := min(c.hot.due(), c.cold.due(), c.open.due())
	return time.Duration(next - c.l.tl.now()), nil
}

// stageDue stages a scheduled frame that was due at due and is sent at now.
func (c *churnDriver) stageDue(s *stream, tmpl []byte, due, now int64) error {
	c.l.t.late.add(now - due)
	return c.stageFrame(s, tmpl, due)
}

func (c *churnDriver) deliver(dgram []byte, now int64) {
	session, _, payload, ok := frameOf(dgram)
	tag, tagged := gen.ReadTag(payload)
	if !ok || !tagged {
		c.l.t.stray++
		return
	}
	s, isFresh, mine := c.lookup(session)
	if !mine {
		c.l.t.stray++
		return
	}
	_, good := s.check(&c.l.t, tag)
	if !good {
		return
	}
	c.l.t.good(c.l.tl, now, tag.StampNs, len(payload))
	inWindow := now >= c.ph.winNs && now < c.ph.traceNs
	switch {
	case isFresh:
		if tag.Index == 0 && inWindow {
			c.openRTT.add(now - tag.StampNs)
		}
		if int(s.sent) < c.w.OpenFrames {
			c.followUp = append(c.followUp, (session-c.newFirst)/c.stride)
		}
	case int((session-c.first)/c.stride) >= c.nHot && inWindow:
		c.unparkRTT.add(now - tag.StampNs)
	}
}

// idle is a no-op: in an open loop a quiet read is just the gap to the next
// due event. Frames that never return are written off in drain.
func (c *churnDriver) idle(int64) {}

func (c *churnDriver) prime() error {
	inflight := 0
	for next := 0; next < len(c.sess) || inflight > 0; {
		k := min(netbatch.BatchSize-inflight, len(c.sess)-next)
		for i := 0; i < k; i++ {
			if err := c.stageFrame(&c.sess[next+i], c.tmpl[next+i], c.l.tl.now()); err != nil {
				return err
			}
		}
		if err := c.flush(); err != nil {
			return err
		}
		next += k
		inflight += k
		n, err := c.l.pump(c, primeTimeout)
		if err != nil {
			return err
		} else if n == 0 {
			return fmt.Errorf("priming: proxy echoed nothing for %v", primeTimeout)
		}
		inflight -= n
	}
	return nil
}

func (c *churnDriver) drain() error {
	owed := func() bool {
		for _, set := range [][]stream{c.sess, c.fresh} {
			for i := range set {
				if set[i].next < set[i].sent {
					return true
				}
			}
		}
		return false
	}
	for owed() {
		n, err := c.l.pump(c, stallLimit)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
	}
	for _, set := range [][]stream{c.sess, c.fresh} {
		for i := range set {
			set[i].writeOff(&c.l.t)
		}
	}
	return nil
}

// arm starts the three schedules at t0; it runs after priming, when t0 is
// known.
func (c *churnDriver) arm() {
	lanes := int64(c.stride)
	c.ph = c.l.tl.at.Load()
	nCold := int64(len(c.sess) - c.nHot)
	// Lanes interleave: lane j's events fall j/lanes of a period after lane
	// 0's, so the proxy sees one evenly spaced arrival stream, not pairs.
	train := func(start, period int64) schedule {
		return schedule{start: c.ph.t0 + start + int64(c.lane)*period/lanes, period: period}
	}
	c.hot = train(0, int64(hotEvery)/int64(c.nHot))
	c.cold = train(int64(coldStart), int64(coldEvery)/nCold)
	c.open = train(0, int64(time.Second)*lanes/int64(c.w.OpenHz))
}

func newChurnDrivers(w gen.Workload, seed int64, in *inputs, lanes []*lane) []driver {
	drivers := make([]driver, len(lanes))
	for j, l := range lanes {
		c := &churnDriver{
			l: l, w: w, seed: seed, lane: j, first: gen.FirstSession + uint32(j), stride: uint32(len(lanes)),
			newFirst: gen.FirstSession + uint32(w.Resident+j),
			ph:       l.tl.at.Load(), // parked in the future until arm
		}
		// The first half of the residents are hot, the second half cold;
		// each lane takes every stride-th of both.
		for _, half := range [2]int{0, w.Resident / 2} {
			for i := half + j; i < half+w.Resident/2; i += len(lanes) {
				c.tmpl = append(c.tmpl, in.tmpl[i])
			}
			if half == 0 {
				c.nHot = len(c.tmpl)
			}
		}
		c.sess = make([]stream, len(c.tmpl))
		drivers[j] = c
	}
	return drivers
}
