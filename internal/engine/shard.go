package engine

import (
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"rapidware/internal/metrics"
	"rapidware/internal/netbatch"
	"rapidware/internal/packet"
)

// Shard-runtime tuning constants.
const (
	// batchSize is the number of datagrams one syscall can move in either
	// direction: the reader offers this many buffers per ReadBatch and a
	// flush takes this many queue entries. On the Linux fast path a full
	// batch costs one recvmmsg/sendmmsg; the portable path degrades to one
	// syscall per datagram behind the same interface.
	batchSize = netbatch.BatchSize
	// writeqSize bounds each shard's outbound datagram queue. When the
	// queue is full new output is dropped and counted, UDP-style, so a
	// slow socket cannot stall session chains.
	writeqSize = 1024
	// maxReadBackoffShift caps the transient-read-error sleep at
	// 1ms << maxReadBackoffShift (256ms).
	maxReadBackoffShift = 8
)

// shardCounters is one shard's counter block. Reader-side counters
// (datagrams, malformed, rejected, feedback, recvCalls) are incremented by
// the shard's reader goroutine; opened and chainErrors are attributed to the
// shard that owns the session; writes, flushes, writeDrops, sendCalls and
// gsoDatagrams belong to the shard's writer. Everything is atomic so Stats
// can aggregate without stopping the data plane.
type shardCounters struct {
	datagrams   atomic.Uint64
	malformed   atomic.Uint64
	rejected    atomic.Uint64
	feedback    atomic.Uint64
	nacks       atomic.Uint64
	retransmits atomic.Uint64
	opened      atomic.Uint64
	chainErrors atomic.Uint64
	writes      atomic.Uint64
	flushes     atomic.Uint64
	writeDrops  atomic.Uint64
	recvCalls   atomic.Uint64
	sendCalls   atomic.Uint64
	// Park/admission accounting (see park.go): parkedNow gauges the shard's
	// currently parked sessions; the rest count lifecycle transitions.
	parkedNow  atomic.Int64
	parks      atomic.Uint64
	unparks    atomic.Uint64
	harvested  atomic.Uint64
	admitDrops atomic.Uint64
	// Delivery-cohort accounting: bypassHits counts trunk frames that took a
	// bypass lane straight into the writer batch (no chain, no copy);
	// coalesced counts cohort outbounds the writer expanded to two or more
	// destinations — frames that traversed (and were encoded by) one shared
	// chain instead of one per receiver.
	bypassHits atomic.Uint64
	coalesced  atomic.Uint64
	// gsoDatagrams counts datagrams the kernel accepted inside multi-segment
	// GSO sends (netbatch.Options.Segmented). It takes 8 bytes of the pad, so
	// every other counter keeps its offset.
	gsoDatagrams atomic.Uint64
	_            [40]byte // pad so neighboring shards' counters don't false-share
}

// outbound is one datagram queued on a shard. dst is the resolved
// unicast destination; fan selects the engine's fan-out group instead (the
// plain multicast path), snapshotted at flush time; view selects a delivery
// cohort's destinations as they were when the frame was enqueued, so a
// membership change applies from the next frame on. Per-receiver unicast
// datagrams (replay priming, NACK retransmissions) set dst with rx pointing
// at the receiver's counter block.
type outbound struct {
	s    *Session
	b    *packet.Buf
	dst  netip.AddrPort
	rx   *metrics.ReceiverCounters
	view *[]target
	fan  bool
}

// wmeta carries one batched datagram's accounting targets through the send
// path, parallel to the ioMsg slice handed to the socket.
type wmeta struct {
	s  *Session
	rx *metrics.ReceiverCounters
}

// shard is one slice of the engine's data plane: a reader goroutine pulling
// datagram batches off its socket and sending what they produce, a writer
// goroutine sending the cohort tails' output and what other goroutines queue,
// and the counter block both report into. In the portable single-socket mode
// all shards share one net.UDPConn (the kernel serializes receives, but
// validation, demux and queueing overlap across readers); in SO_REUSEPORT
// mode each shard owns its own socket and the kernel spreads flows across
// them.
type shard struct {
	idx      int
	eng      *Engine
	conn     *net.UDPConn
	bconn    batchConn // wired by Start unless a test injected one
	counters shardCounters

	// The output queues. Producers append to wq under wmu and wake the
	// writer — except while the reader is handling a batch (reading is set):
	// the reader sends wq itself once done, in one piece, so flush groups
	// each view's frames into one GSO run per destination. tq holds the
	// cohort tails' output, which the writer sends (see enqueueTail).
	wmu     sync.Mutex
	wq, tq  []outbound // guarded by wmu
	wake    chan struct{}
	reading atomic.Bool

	// sendMu serializes sendQueue, so each queue goes out in order, and
	// guards the scratch below, reused so fan-out expansion never allocates
	// in steady state.
	sendMu sync.Mutex
	spare  []outbound
	wmsgs  []ioMsg
	wacct  []wmeta
	widx   [batchSize]int32
}

// stats snapshots this shard's counters.
func (sh *shard) stats() metrics.ShardStats {
	return metrics.ShardStats{
		Shard:       sh.idx,
		Sessions:    sh.eng.table.countShard(sh.idx),
		Datagrams:   sh.counters.datagrams.Load(),
		Malformed:   sh.counters.malformed.Load(),
		Rejected:    sh.counters.rejected.Load(),
		Feedback:    sh.counters.feedback.Load(),
		Nacks:       sh.counters.nacks.Load(),
		Retransmits: sh.counters.retransmits.Load(),
		ChainErrors: sh.counters.chainErrors.Load(),
		Writes:      sh.counters.writes.Load(),
		Flushes:     sh.counters.flushes.Load(),
		WriteDrops:  sh.counters.writeDrops.Load(),
		RecvCalls:   sh.counters.recvCalls.Load(),
		SendCalls:   sh.counters.sendCalls.Load(),

		GSODatagrams: sh.counters.gsoDatagrams.Load(),

		Parked:         int(sh.counters.parkedNow.Load()),
		Parks:          sh.counters.parks.Load(),
		Unparks:        sh.counters.unparks.Load(),
		Harvested:      sh.counters.harvested.Load(),
		AdmissionDrops: sh.counters.admitDrops.Load(),

		BypassHits:     sh.counters.bypassHits.Load(),
		CoalescedSends: sh.counters.coalesced.Load(),
	}
}

// readLoop pulls datagram batches off the shard's socket and routes each to
// its session. Buffers are leased from the packet pool a batch at a time;
// slots the kernel didn't fill keep their buffer for the next batch, so an
// idle shard holds at most batchSize spare buffers and steady state still
// allocates nothing. What a batch's sessions emit is queued while the batch
// runs and sent by the reader once it is done, so one flush carries the whole
// batch's output and no goroutine handoff sits on the forwarding path (cohort
// tails' output excepted, see enqueueTail). Transient read errors back off
// exponentially — both the retry pace and the logging — so a persistent
// socket fault can neither spin a core nor storm the log.
func (sh *shard) readLoop() {
	e := sh.eng
	defer e.wg.Done()
	var (
		bufs [batchSize]*packet.Buf
		ms   [batchSize]ioMsg
	)
	defer func() {
		for _, b := range bufs {
			if b != nil {
				b.Release()
			}
		}
	}()
	var errStreak uint
	for {
		for i := range bufs {
			if bufs[i] == nil {
				bufs[i] = packet.GetBuf(packet.MaxDatagram)
			}
			ms[i].Buf = bufs[i].B
		}
		n, err := sh.bconn.ReadBatch(ms[:])
		if err != nil {
			if errors.Is(err, net.ErrClosed) || e.closed.Load() {
				return
			}
			errStreak++
			if errStreak&(errStreak-1) == 0 {
				// Log errors 1, 2, 4, 8, ...: exponential backoff keeps a
				// persistent fault to a handful of lines per thousand errors.
				e.logf("shard %d: read: %v (error %d in a row)", sh.idx, err, errStreak)
			}
			if errStreak > 1 {
				time.Sleep(time.Millisecond << min(errStreak-2, maxReadBackoffShift))
			}
			continue
		}
		errStreak = 0
		sh.counters.datagrams.Add(uint64(n))
		sh.reading.Store(true)
		for i := 0; i < n; i++ {
			b := bufs[i]
			bufs[i] = nil // ownership moves to the session (or is released below)
			sh.handleDatagram(b, ms[i].N, ms[i].Addr)
		}
		sh.reading.Store(false)
		sh.sendQueue(&sh.wq)
	}
}

// handleDatagram validates and demuxes one received datagram: lookup and
// open touch only the owning table shard's lock, receiver reports are
// consumed on the control path, and nothing in steady state allocates.
// handleDatagram owns b.
func (sh *shard) handleDatagram(b *packet.Buf, n int, from netip.AddrPort) {
	e := sh.eng
	if n < packet.SessionIDSize {
		sh.counters.malformed.Add(1)
		b.Release()
		return
	}
	b.B = b.B[:n]
	// Reject garbage before it can reach (or create) a session: a frame
	// that fails validation would otherwise kill the session's chain.
	if packet.ValidateFrame(b.B[packet.SessionIDSize:]) != nil {
		sh.counters.malformed.Add(1)
		b.Release()
		return
	}
	id := binary.BigEndian.Uint32(b.B)
	// Receiver reports close the adaptation loop on the control path:
	// they are consumed here, never enter a chain, and never open a
	// session (a report for an unknown session is simply dropped).
	if packet.Kind(b.B[packet.SessionIDSize+3]) == packet.KindFeedback {
		sh.counters.feedback.Add(1)
		if s := e.table.lookup(id); s != nil {
			s.handleFeedback(from, b.B[packet.SessionIDSize:])
		}
		b.Release()
		return
	}
	// NACKs ride the same feedback wire: consumed here, answered out of
	// the session's ARQ retransmission history, never entering a chain or
	// opening a session.
	if packet.Kind(b.B[packet.SessionIDSize+3]) == packet.KindNack {
		sh.counters.nacks.Add(1)
		if s := e.table.lookup(id); s != nil {
			s.handleNack(from, b.B[packet.SessionIDSize:])
		}
		b.Release()
		return
	}
	s := e.table.lookup(id)
	if s == nil {
		var err error
		s, err = e.openSession(id, from)
		if err != nil {
			sh.counters.rejected.Add(1)
			b.Release()
			if !errors.Is(err, ErrSessionLimit) && !errors.Is(err, ErrEngineClosed) {
				e.logf("session %d: %v", id, err)
			}
			return
		}
	}
	s.deliver(b, from)
}

// enqueue queues one outbound datagram for the shard's socket. Off the
// reader's batch — a stage's release timer, the control plane — it wakes the
// writer. enqueue takes ownership of o.b.
func (sh *shard) enqueue(o outbound) {
	if sh.push(&sh.wq, o) && !sh.reading.Load() {
		sh.wakeWriter()
	}
}

// enqueueTail queues one datagram of a cohort tail's output, which the writer
// sends: it is the heavy part of a fan-out — an encoded stream, parity
// included, to every member — and handing it over lets the reader send the
// trunk's and the bypass lane's output and get back to the socket. It takes
// ownership of o.b.
func (sh *shard) enqueueTail(o outbound) {
	if sh.push(&sh.tq, o) {
		sh.wakeWriter()
	}
}

// push appends o to q, or drops it (UDP-style, counted) when q is full so a
// saturated socket cannot stall the session chains feeding it.
func (sh *shard) push(q *[]outbound, o outbound) bool {
	sh.wmu.Lock()
	if len(*q) < writeqSize {
		*q = append(*q, o)
		sh.wmu.Unlock()
		return true
	}
	sh.wmu.Unlock()
	o.s.counters.Drops.Add(1)
	if o.rx != nil {
		o.rx.Drops.Add(1)
	}
	if o.view != nil {
		// One lost cohort frame is one lost datagram per member.
		for _, t := range *o.view {
			t.rx.Drops.Add(1)
		}
	}
	sh.counters.writeDrops.Add(1)
	o.b.Release()
	return false
}

// wakeWriter tells the writer the queue has work; wakes coalesce.
func (sh *shard) wakeWriter() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// writeLoop sends the cohort tails' output and what is queued off the
// reader's batches. Output order is preserved per queue — every session
// enqueues on exactly one shard, and sendQueue sends in queue order — so per
// destination, as a destination is fed from one queue at a time.
func (sh *shard) writeLoop() {
	e := sh.eng
	defer e.wg.Done()
	for {
		select {
		case <-sh.wake:
			sh.sendQueue(&sh.tq)
			sh.sendQueue(&sh.wq)
		case <-e.stopWriters:
			sh.drainWriteQueue()
			return
		}
	}
}

// sendQueue takes the whole of q and flushes it through the batch conn
// batchSize entries at a time.
func (sh *shard) sendQueue(q *[]outbound) {
	sh.sendMu.Lock()
	defer sh.sendMu.Unlock()
	sh.wmu.Lock()
	b := *q
	*q = sh.spare
	sh.wmu.Unlock()
	for i := 0; i < len(b); i += batchSize {
		batch := b[i:min(i+batchSize, len(b))]
		sh.flush(batch)
		sh.counters.writes.Add(uint64(len(batch)))
		sh.counters.flushes.Add(1)
	}
	clear(b)
	sh.spare = b[:0]
}

// flush expands one drained batch into the wire-level datagram list — fan-out
// entries become one datagram per group member, sharing the payload buffer by
// reference — sends it, and releases every buffer. flush owns the batch's
// buffers.
//
// The batch's frames bound for one cohort view expand destination-major: all of
// member A's frames, then all of member B's, and so on. Per-destination
// order is exactly queue order (all UDP promises), and runs of equal-size
// datagrams to one address are what the batch conn's UDP GSO path folds into
// single segmented sends — so a busy fan-out session pays per-burst, not
// per-datagram, kernel cost at every destination.
func (sh *shard) flush(batch []outbound) {
	ms := sh.wmsgs[:0]
	acct := sh.wacct[:0]
	var taken [batchSize]bool // cohort frames already expanded with an earlier run
	for i := range batch {
		o := &batch[i]
		if taken[i] {
			continue
		}
		if o.view == nil {
			if !o.fan {
				ms = append(ms, ioMsg{Buf: o.b.B, Addr: o.dst})
				acct = append(acct, wmeta{s: o.s, rx: o.rx})
				continue
			}
			targets := o.s.eng.group.Snapshot()
			if len(targets) == 0 {
				o.s.counters.Drops.Add(1)
				continue
			}
			for _, dst := range targets {
				ms = append(ms, ioMsg{Buf: o.b.B, Addr: dst})
				acct = append(acct, wmeta{s: o.s})
			}
			continue
		}
		// Cohort fan-out: one payload buffer per frame, one address stamp per
		// member of the view the frame was enqueued with.
		//
		// The run is every frame in the batch with this view, adjacent or
		// not: cohorts feed the queue concurrently (tails from their release
		// timers, the bypass lane and tails from dispatch), so their frames
		// interleave, and only what is expanded together can share a GSO
		// send. Pulling a view's later frames forward keeps their order —
		// which is each of its destinations' order — and only moves them past
		// other views' and sessions' frames, with which they were never
		// ordered.
		view := o.view
		run := 0
		for j := i; j < len(batch); j++ {
			if batch[j].view == view {
				taken[j] = true
				sh.widx[run] = int32(j)
				run++
			}
		}
		targets := *view
		for _, t := range targets {
			for k := 0; k < run; k++ {
				f := &batch[sh.widx[k]]
				ms = append(ms, ioMsg{Buf: f.b.B, Addr: t.dst})
				acct = append(acct, wmeta{s: f.s, rx: t.rx})
			}
		}
		switch {
		case len(targets) == 0:
			for k := 0; k < run; k++ {
				batch[sh.widx[k]].s.counters.Drops.Add(1)
			}
		case len(targets) >= 2:
			sh.counters.coalesced.Add(uint64(run))
		}
	}
	sh.wmsgs, sh.wacct = ms, acct
	sh.sendBatch(ms, acct)
	for i := range batch {
		batch[i].b.Release()
	}
}

// sendBatch pushes a prepared datagram list through the batch conn, crediting
// each success to its session (and receiver branch, when present). Failures
// follow UDP's fire-and-forget contract: a conn error names exactly one
// datagram, which is dropped and counted, and the remainder is re-offered —
// so a transient send error can never stall the queue or discard the
// datagrams behind it. The loop terminates because every round either sends
// or drops at least one datagram.
func (sh *shard) sendBatch(ms []ioMsg, acct []wmeta) {
	drop := func(m *wmeta) {
		m.s.counters.Drops.Add(1)
		if m.rx != nil {
			m.rx.Drops.Add(1)
		}
		sh.counters.writeDrops.Add(1)
	}
	sent := 0
	for sent < len(ms) {
		n, err := sh.bconn.WriteBatch(ms[sent:])
		for i := sent; i < sent+n; i++ {
			m := &acct[i]
			m.s.counters.OutPackets.Add(1)
			m.s.counters.OutBytes.Add(uint64(len(ms[i].Buf)))
			if m.rx != nil {
				m.rx.OutPackets.Add(1)
				m.rx.OutBytes.Add(uint64(len(ms[i].Buf)))
			}
		}
		sent += n
		if err != nil {
			if sent >= len(ms) {
				return
			}
			drop(&acct[sent])
			sent++
		} else if n == 0 {
			// No progress and no error: a violation of netbatch.Conn's
			// contract, which only a broken or scripted conn commits. Bail out
			// rather than spin, accounting the remainder like any other send
			// failure so every datagram still ends in a counted outcome.
			for i := sent; i < len(ms); i++ {
				drop(&acct[i])
			}
			return
		}
	}
}

// drainWriteQueue releases whatever is still queued at shutdown.
func (sh *shard) drainWriteQueue() {
	sh.wmu.Lock()
	q := append(sh.wq, sh.tq...)
	sh.wq, sh.tq = nil, nil
	sh.wmu.Unlock()
	for _, o := range q {
		o.b.Release()
	}
}
