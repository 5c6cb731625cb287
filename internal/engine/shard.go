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
	// direction: the reader offers this many buffers per ReadBatch. On the
	// Linux fast path a full batch costs one recvmmsg/sendmmsg; the portable
	// path degrades to one syscall per datagram behind the same interface.
	batchSize = netbatch.BatchSize
	// writeqSize bounds each shard's outbound datagram queue. When the
	// queue is full new output is dropped and counted, UDP-style, so a
	// slow socket cannot stall session chains.
	writeqSize = 1024
	// flushSize is the number of queue entries one flush expands, and so the
	// window inside which flush sends a cohort's parity frames after its
	// data frames (see flush). 64 entries hold frames of at most 64 FEC
	// groups, so a group's parity trails at most 63 other groups' data to a
	// member: within the 64 groups a receiver's FEC decoder tracks
	// (fec.NewFrameDecoder's default), which therefore still has the group
	// when its parity arrives. It also bounds flush's per-view scan and the
	// expansion scratch, which peaks at flushSize x members datagrams.
	flushSize = 64
	// maxReadBackoffShift caps the transient-read-error sleep at
	// 1ms << maxReadBackoffShift (256ms).
	maxReadBackoffShift = 8
)

// shardCounters is one shard's counter block. Reader-side counters
// (datagrams, malformed, rejected, feedback, recvCalls) are incremented by
// the shard's reader goroutine; opened and chainErrors are attributed to the
// shard that owns the session; writes, flushes, writeDrops, sendCalls,
// gsoDatagrams, sendEntries and sentDatagrams belong to the shard's writer.
// Everything is atomic so Stats can aggregate without stopping the data
// plane.
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
	// GSO sends (netbatch.Options.Segmented); sendEntries counts the send
	// entries it accepted, a GSO run once (netbatch.Options.Entries), and
	// sentDatagrams the datagrams it accepted, a cohort frame once per
	// member. They take 24 bytes of the pad, so every other counter keeps
	// its offset.
	gsoDatagrams  atomic.Uint64
	sendEntries   atomic.Uint64
	sentDatagrams atomic.Uint64
	_             [24]byte // pad so neighboring shards' counters don't false-share
}

// outbound is one datagram queued on a shard. dst is the resolved
// unicast destination; view selects a delivery cohort's destinations instead,
// as they were when the frame was enqueued, so a membership change applies
// from the next frame on. Per-receiver unicast
// datagrams (replay priming, NACK retransmissions) set dst with rx pointing
// at the receiver's counter block.
type outbound struct {
	s    *Session
	b    *packet.Buf
	dst  netip.AddrPort
	rx   *metrics.ReceiverCounters
	view *[]target
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
	// each view's frames into GSO runs per destination. tq holds the
	// cohort tails' output, which the writer sends (see enqueueTail).
	wmu     sync.Mutex
	wq, tq  []outbound // guarded by wmu
	wake    chan struct{}
	reading atomic.Bool

	// sendMu serializes sendQueue, so each queue goes out in order, and
	// guards the scratch below, reused so fan-out expansion never allocates
	// in steady state. widx and pidx hold one cohort run's data and parity
	// frames (see flush).
	sendMu sync.Mutex
	spare  []outbound
	wmsgs  []ioMsg
	wacct  []wmeta
	widx   [flushSize]int32
	pidx   [flushSize]int32
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

		GSODatagrams:  sh.counters.gsoDatagrams.Load(),
		SendEntries:   sh.counters.sendEntries.Load(),
		SentDatagrams: sh.counters.sentDatagrams.Load(),

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
// reader's batches. Every session enqueues on exactly one shard, sendQueue
// sends one queue at a time, and flush keeps queue order per destination for
// unicast datagrams and per destination and kind for cohort frames (see
// flush), so that order holds per destination as it is fed from one queue at
// a time.
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

// sendQueue takes the whole of q and flushes it flushSize entries at a time;
// sendBatch splits each flush's expansion into syscalls.
func (sh *shard) sendQueue(q *[]outbound) {
	sh.sendMu.Lock()
	defer sh.sendMu.Unlock()
	sh.wmu.Lock()
	b := *q
	*q = sh.spare
	sh.wmu.Unlock()
	for i := 0; i < len(b); i += flushSize {
		batch := b[i:min(i+flushSize, len(b))]
		sh.flush(batch)
		sh.counters.writes.Add(uint64(len(batch)))
		sh.counters.flushes.Add(1)
	}
	clear(b)
	sh.spare = b[:0]
}

// flush expands at most flushSize drained queue entries into the wire-level
// datagram list — unicast entries stay as they are, cohort entries become one
// datagram per member of their view, sharing the payload buffer by reference
// — sends it, and releases every buffer. flush owns the batch's buffers.
//
// The frames bound for one cohort view expand destination-major: all of
// member A's frames, then all of member B's, and so on. Each member gets the
// view's data frames in queue order, then its parity frames in queue order:
// a parity frame is two bytes longer than its group's data (the FEC share
// length prefix), so interleaving them would cut every member's run of
// equal-size datagrams — what the batch conn's UDP GSO path folds into one
// segmented send — at each group boundary, while kind-major runs span the
// whole batch. A group's parity may thus trail later groups' data to the same
// member, within one batch: flushSize keeps that inside the groups a
// receiver's FEC decoder tracks. The contract is: per destination and
// session, unicast datagrams keep queue order, and a cohort's data frames
// keep queue order and its parity frames keep queue order.
func (sh *shard) flush(batch []outbound) {
	ms := sh.wmsgs[:0]
	acct := sh.wacct[:0]
	var taken [flushSize]bool // cohort frames already expanded with an earlier run
	for i := range batch {
		o := &batch[i]
		if taken[i] {
			continue
		}
		if o.view == nil {
			ms = append(ms, ioMsg{Buf: o.b.B, Addr: o.dst})
			acct = append(acct, wmeta{s: o.s, rx: o.rx})
			continue
		}
		// Cohort fan-out: one payload buffer per frame, one address stamp per
		// member of the view the frame was enqueued with.
		//
		// The run is every frame in the batch with this view, adjacent or
		// not: cohorts feed the queue concurrently (tails from their release
		// timers, the bypass lane and tails from dispatch), so their frames
		// interleave, and only what is expanded together can share a GSO
		// send. Pulling a view's later frames forward only moves them past
		// other views' and sessions' frames, with which they were never
		// ordered. One scan collects the run's data frames in widx and its
		// parity frames in pidx; their concatenation is replayed for every
		// member.
		view := o.view
		run, parity := 0, 0
		for j := i; j < len(batch); j++ {
			if batch[j].view != view {
				continue
			}
			taken[j] = true
			if packet.FrameKind(batch[j].b.B[packet.SessionIDSize:]) == packet.KindParity {
				sh.pidx[parity] = int32(j)
				parity++
			} else {
				sh.widx[run] = int32(j)
				run++
			}
		}
		run += copy(sh.widx[run:], sh.pidx[:parity])
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
// each success to the shard's sent datagrams and to its session (and receiver
// branch, when present). Failures follow UDP's fire-and-forget contract: a
// conn error names exactly one datagram, which is dropped and counted, and
// the remainder is re-offered — so a transient send error can never stall
// the queue or discard the datagrams behind it. The loop terminates because
// every round either sends or drops at least one datagram.
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
		sh.counters.sentDatagrams.Add(uint64(n))
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
