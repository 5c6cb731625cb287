package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"rapidware/bench/gen"
	"rapidware/bench/layers"
	"rapidware/bench/span"
	"rapidware/internal/control"
	"rapidware/internal/metrics"
	"rapidware/internal/netbatch"
)

// runOpts is one workload run's configuration.
type runOpts struct {
	w       gen.Workload
	seed    int64
	seconds int  // measured window
	traced  bool // add the traced window and the layer replay
	root    string
	bin     string // the built rapidproxy
}

const (
	// warmup fills caches, opens sessions' steady state and lets the adapt
	// plane settle before anything is measured.
	warmup = 2 * time.Second
	// setups is how many times a run sets the proxy up; setup_s is their
	// median and the last incarnation carries the measurement.
	setups = 5
	// spanLimit bounds the spans each goroutine keeps.
	spanLimit = 20000
)

// tracedSeconds is the length of the traced window that follows a measured
// window of the given length.
func tracedSeconds(seconds int) int { return max(2, seconds*2/5) }

// rig is one proxy incarnation with the generator wired to it.
type rig struct {
	p       *proxy
	lanes   []*lane
	drivers []driver
	fan     *fanout
	// idleKiB and primedKiB are the proxy's resident set before and after
	// the sessions were opened.
	idleKiB, primedKiB int64
}

func (r *rig) close() {
	if r.fan != nil {
		r.fan.close()
	}
	for _, l := range r.lanes {
		l.conn.Close()
	}
	if r.p != nil {
		r.p.kill()
	}
}

// setUp spawns a fresh proxy, connects the generator and opens every session.
// The returned duration is what setup_s reports: spawn to all sessions primed,
// input generation and the proxy's build excluded.
func setUp(o runOpts, in *inputs, tl *timeline, tracers []*span.Tracer) (*rig, time.Duration, error) {
	r := &rig{}
	fail := func(err error) (*rig, time.Duration, error) {
		r.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	flags := slices.Clone(o.w.Flags)
	if o.w.Kind == gen.Fanout {
		// The sinks' sockets come first: the proxy takes their addresses as
		// flags. Opening them is not part of the proxy's set-up.
		var err error
		if r.fan, err = newFanout(o.w, in, tl); err != nil {
			return fail(err)
		}
		flags = append(flags, "-adapt", "-fanout", strings.Join(r.fan.addrs(), ","))
		if netbatch.GSOAvailable {
			flags = append(flags, "-gso")
		}
	}
	began := time.Now()
	var err error
	if r.p, err = startProxy(o.bin, o.w.Chain, flags, o.w.Procs); err != nil {
		return fail(err)
	}
	if r.idleKiB, _, err = memKiB(r.p.pid); err != nil {
		return fail(err)
	}
	if o.w.Kind == gen.Fanout {
		if err = r.fan.start(r.p.data, tracers[0]); err == nil {
			err = r.fan.prime(r.p)
		}
	} else {
		for j := 0; j < o.w.Sockets && err == nil; j++ {
			var l *lane
			if l, err = newLane(tl, r.p.data, gen.PayloadOff+o.w.Payload, tracers[j]); err == nil {
				r.lanes = append(r.lanes, l)
			}
		}
	}
	if err != nil {
		return fail(err)
	}
	switch o.w.Kind {
	case gen.Echo:
		r.drivers = newEchoDrivers(o.w, in, r.lanes)
	case gen.FEC:
		if r.drivers, err = newFECDrivers(o.w, o.seed, in, r.lanes); err != nil {
			return fail(err)
		}
	case gen.Churn:
		r.drivers = newChurnDrivers(o.w, o.seed, in, r.lanes)
	}
	// Lanes prime side by side, as they will run.
	errs := make(chan error, len(r.drivers))
	for _, d := range r.drivers {
		go func() { errs <- d.prime() }()
	}
	for range r.drivers {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		return fail(err)
	}
	took := time.Since(began)
	if r.primedKiB, _, err = memKiB(r.p.pid); err != nil {
		return fail(err)
	}
	return r, took, nil
}

// composer is recompose-live's control-plane schedule: Compose at w.ComposeHz
// on its own control connection, sessions round-robin, each stepping through
// w.Plans. An operation is timed from the instant it was due.
type composer struct {
	w    gen.Workload
	tl   *timeline
	ctl  *control.Client
	tr   *span.Tracer
	step []int // per session: position in w.Plans

	latency, late hist // window only
	ops, failed   uint64
}

func (c *composer) run() {
	period := int64(time.Second) / int64(c.w.ComposeHz)
	ph := c.tl.at.Load()
	for k := int64(0); ; k++ {
		due := ph.t0 + k*period
		if due >= ph.endNs {
			return
		}
		if wait := due - c.tl.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		i := int(k) % len(c.step)
		c.step[i] = (c.step[i] + 1) % len(c.w.Plans)
		began := c.tl.now()
		var tr *span.Tracer
		if began >= ph.traceNs {
			tr = c.tr
		}
		sp := tr.Begin("Compose", "control", -1, int(k))
		_, err := c.ctl.Compose(gen.FirstSession+uint32(i), "", c.w.Plans[c.step[i]])
		tr.End(sp)
		done := c.tl.now()
		c.ops++
		if err != nil {
			c.failed++
		}
		if began >= ph.winNs && began < ph.traceNs {
			c.latency.add(done - due)
			c.late.add(began - due)
		}
	}
}

// observed is everything one run saw, before it is turned into metrics.
type observed struct {
	o       runOpts
	tl      *timeline
	setupS  []float64
	tallies []*tally
	cpu     []int64 // proxy CPU ns at each slice boundary
	// before and after bracket the measured window; final follows the drain.
	before, after, final *metrics.EngineStats
	sessions             []metrics.SessionStats
	hwmKiB               int64
	idleKiB, primedKiB   int64
	comp                 *composer
	fec                  []*fecDriver
	churn                []*churnDriver
	fan                  *fanout
	statsRTT             hist
	tracks               [][]span.Span
	layers               *layers.Result
}

// runWorkload performs one complete run: inputs, set-up (several times), the
// timeline, the drain, the proxy's own counters, teardown.
func runWorkload(o runOpts) (*observed, error) {
	in, err := prepare(o.w, o.seed)
	if err != nil {
		return nil, err
	}
	tl := &timeline{epoch: time.Now(), warmup: warmup, window: time.Duration(o.seconds) * time.Second}
	nTracks := max(o.w.Sockets, 1) + 1 // lanes, then the composer
	tracers := make([]*span.Tracer, nTracks)
	if o.traced {
		tl.traced = time.Duration(tracedSeconds(o.seconds)) * time.Second
		for i := range tracers {
			tracers[i] = span.New(tl.epoch, spanLimit)
		}
	}
	ob := &observed{o: o, tl: tl}
	var r *rig
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
		}
		// Until the real start is known, park the timeline in the far
		// future: nothing set-up sends or receives lands in a slice.
		tl.start(1 << 62)
		var took time.Duration
		if r, took, err = setUp(o, in, tl, tracers); err != nil {
			return nil, err
		}
		ob.setupS = append(ob.setupS, took.Seconds())
	}
	defer r.close()
	ob.idleKiB, ob.primedKiB = r.idleKiB, r.primedKiB

	tl.start(tl.now() + int64(5*time.Millisecond))
	ph := tl.at.Load()
	var wg sync.WaitGroup
	errs := make(chan error, len(r.lanes)+1)
	for i, l := range r.lanes {
		d := r.drivers[i]
		if a, ok := d.(interface{ arm() }); ok {
			a.arm()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.run(d); err != nil {
				errs <- err
			}
		}()
	}
	if r.fan != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.fan.run(); err != nil {
				errs <- err
			}
		}()
	}
	if o.w.ComposeHz > 0 {
		ctl, err := control.Dial(r.p.ctlAddr, readyTimeout)
		if err != nil {
			return nil, err
		}
		defer ctl.Close()
		ob.comp = &composer{w: o.w, tl: tl, ctl: ctl, tr: tracers[nTracks-1], step: make([]int, o.w.Sessions)}
		wg.Add(1)
		go func() { defer wg.Done(); ob.comp.run() }()
	}

	// The conductor: sample the proxy's CPU at every slice boundary and its
	// counters at the window's two edges.
	for s := 0; s <= tl.nSlices(); s++ {
		at := ph.t0 + int64(s)*int64(time.Second)
		time.Sleep(time.Duration(at - tl.now()))
		ns, err := cpuNs(r.p.pid)
		if err != nil {
			return nil, err
		}
		ob.cpu = append(ob.cpu, ns)
		switch at {
		case ph.winNs:
			ob.before, _, err = r.p.ctl.Stats()
		case ph.traceNs:
			ob.after, _, err = r.p.ctl.Stats()
		}
		if err != nil {
			return nil, err
		}
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	if r.fan != nil {
		if err := r.fan.finish(); err != nil {
			return nil, err
		}
	}

	if ob.final, _, err = r.p.ctl.Stats(); err != nil {
		return nil, err
	}
	if ob.sessions, err = r.p.ctl.Sessions(); err != nil {
		return nil, err
	}
	if _, ob.hwmKiB, err = memKiB(r.p.pid); err != nil {
		return nil, err
	}
	for _, l := range r.lanes {
		ob.tallies = append(ob.tallies, &l.t)
	}
	for _, d := range r.drivers {
		switch d := d.(type) {
		case *fecDriver:
			ob.fec = append(ob.fec, d)
		case *churnDriver:
			ob.churn = append(ob.churn, d)
		}
	}
	if ob.fan = r.fan; r.fan != nil {
		for _, s := range r.fan.sinks {
			ob.tallies = append(ob.tallies, &s.t)
		}
	}
	if o.traced {
		if err := ob.trace(r, tracers); err != nil {
			return nil, err
		}
	}
	return ob, nil
}

// trace finishes a traced run: the control round trip, the span file, and the
// layer replay.
func (ob *observed) trace(r *rig, tracers []*span.Tracer) error {
	ctlTr := span.New(ob.tl.epoch, spanLimit)
	for i := 0; i < 50; i++ {
		sp := ctlTr.Begin("Stats", "control", -1, i)
		if _, _, err := r.p.ctl.Stats(); err != nil {
			return err
		}
		ob.statsRTT.add(ctlTr.End(sp))
	}
	for _, t := range append(tracers, ctlTr) {
		ob.tracks = append(ob.tracks, t.Spans())
	}
	res, err := layers.Replay(ob.o.w, ob.o.seed)
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	ob.layers = res
	ob.tracks = append(ob.tracks, res.Spans)
	path := filepath.Join(ob.o.root, "bench", "out", "trace-"+ob.o.w.Name+".json")
	return span.Write(path, span.File{
		Workload: ob.o.w.Name, Seed: ob.o.seed, Totals: span.Totals(ob.tracks), Tracks: ob.tracks,
	})
}
