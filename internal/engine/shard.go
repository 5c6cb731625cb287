package engine

import (
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"sync/atomic"
	"time"

	"rapidware/internal/metrics"
	"rapidware/internal/netbatch"
	"rapidware/internal/packet"
)

// Shard-runtime tuning constants.
const (
	// batchSize is the number of datagrams one syscall can move in either
	// direction: the reader offers this many buffers per ReadBatch and the
	// writer drains this many queue entries per flush. On the Linux fast
	// path a full batch costs one recvmmsg/sendmmsg; the portable path
	// degrades to one syscall per datagram behind the same interface.
	batchSize = netbatch.BatchSize
	// writeQueueDepth bounds each shard's outbound datagram queue. When the
	// queue is full new output is dropped and counted, UDP-style, so a
	// slow socket cannot stall session chains.
	writeQueueDepth = 1024
	// maxReadBackoffShift caps the transient-read-error sleep at
	// 1ms << maxReadBackoffShift (256ms).
	maxReadBackoffShift = 8
)

// shardCounters is one shard's counter block. Reader-side counters
// (datagrams, malformed, rejected, feedback, recvCalls) are incremented by
// the shard's reader goroutine; opened and chainErrors are attributed to the
// shard that owns the session; writes, flushes, writeDrops and sendCalls
// belong to the shard's writer. Everything is atomic so Stats can aggregate
// without stopping the data plane.
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
	_          [48]byte // pad so neighboring shards' counters don't false-share
}

// outbound is one datagram queued on a shard writer. dst is the resolved
// unicast destination; fan selects the engine's fan-out group instead (the
// plain multicast path); grp selects a delivery cohort, expanded to the
// cohort's current membership — targets plus still-fading migrated members —
// at flush time, so membership changes apply to queued datagrams too.
// Per-receiver unicast datagrams (replay priming, NACK retransmissions) set
// dst with rx pointing at the receiver's counter block.
type outbound struct {
	s   *Session
	b   *packet.Buf
	dst netip.AddrPort
	rx  *metrics.ReceiverCounters
	grp *cohort
	fan bool
}

// wmeta carries one batched datagram's accounting targets through the send
// path, parallel to the ioMsg slice handed to the socket.
type wmeta struct {
	s  *Session
	rx *metrics.ReceiverCounters
}

// shard is one slice of the engine's data plane: a reader goroutine pulling
// datagram batches off its socket, a writer goroutine flushing batched
// output, and the counter block both report into. In the portable
// single-socket mode all shards share one net.UDPConn (the kernel serializes
// receives, but validation, demux and queueing overlap across readers); in
// SO_REUSEPORT mode each shard owns its own socket and the kernel spreads
// flows across them.
type shard struct {
	idx      int
	eng      *Engine
	conn     *net.UDPConn
	bconn    batchConn // wired by Start unless a test injected one
	writeq   chan outbound
	counters shardCounters

	// Writer-side scratch, reused across flushes so fan-out expansion never
	// allocates in steady state. Only the writer goroutine touches these.
	wmsgs []ioMsg
	wacct []wmeta
	widx  [batchSize]int32
	wseqs [batchSize]int64
	whits [batchSize]int32
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
// allocates nothing. Transient read errors back off exponentially — both the
// retry pace and the logging — so a persistent socket fault can neither spin
// a core nor storm the log.
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
		for i := 0; i < n; i++ {
			b := bufs[i]
			bufs[i] = nil // ownership moves to the session (or is released below)
			sh.handleDatagram(b, ms[i].N, ms[i].Addr)
		}
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

// enqueue hands one outbound datagram to the shard's writer, dropping
// (UDP-style, counted) when the queue is full so a saturated socket cannot
// stall the session chains feeding it. enqueue takes ownership of o.b.
func (sh *shard) enqueue(o outbound) {
	select {
	case sh.writeq <- o:
	default:
		o.s.counters.Drops.Add(1)
		if o.rx != nil {
			o.rx.Drops.Add(1)
		}
		if o.grp != nil {
			// One lost cohort frame is one lost datagram per member. The
			// frame still consumes its cohort sequence number so fade fences
			// stay aligned with the frames that actually flush.
			seq := o.grp.consumed.Add(1) - 1
			v := o.grp.view.Load()
			for i := range v.targets {
				t := &v.targets[i]
				if t.gate != nil && seq < t.gate.at.Load() {
					continue // not this member's frame; see flush
				}
				t.rx.Drops.Add(1)
			}
		}
		sh.counters.writeDrops.Add(1)
		o.b.Release()
	}
}

// writeLoop is the shard's batched send path: it blocks for one outbound
// datagram, opportunistically drains up to batchSize-1 more without
// blocking, and flushes the batch through the batch conn. Per-session output
// order is preserved because every session enqueues on exactly one shard and
// the flush sends in queue order.
func (sh *shard) writeLoop() {
	e := sh.eng
	defer e.wg.Done()
	var batch [batchSize]outbound
	for {
		select {
		case o := <-sh.writeq:
			batch[0] = o
		case <-e.stopWriters:
			sh.drainWriteQueue()
			return
		}
		n := 1
	fill:
		for n < batchSize {
			select {
			case o := <-sh.writeq:
				batch[n] = o
				n++
			default:
				break fill
			}
		}
		sh.flush(batch[:n])
		for i := 0; i < n; i++ {
			batch[i] = outbound{}
		}
		sh.counters.writes.Add(uint64(n))
		sh.counters.flushes.Add(1)
	}
}

// flush expands one drained batch into the wire-level datagram list — fan-out
// entries become one datagram per group member, sharing the payload buffer by
// reference — sends it, and releases every buffer. flush owns the batch's
// buffers.
//
// The batch's frames bound for one cohort expand destination-major: all of
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
		if o.grp == nil {
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
		// member, plus migrated members whose fade fence a frame's cohort
		// sequence number still precedes (frames in flight at migration time
		// reach them; newer frames — which their new cohort delivers — do
		// not) and minus joined members whose start gate it hasn't reached
		// (their old cohort still owes them those).
		//
		// The run is every frame of this cohort in the batch, adjacent or
		// not: cohorts feed the queue concurrently (the bypass lane from the
		// reader, chain cohorts from their sinks), so their frames interleave,
		// and only what is expanded together can share a GSO send. Pulling a
		// cohort's later frames forward keeps that cohort's order — which is
		// each of its destinations' order — and only moves them past other
		// cohorts' and sessions' frames, with which they were never ordered.
		grp := o.grp
		run := 0
		for j := i; j < len(batch); j++ {
			if batch[j].grp != grp {
				continue
			}
			taken[j] = true
			sh.widx[run] = int32(j)
			sh.wseqs[run] = grp.consumed.Add(1) - 1
			sh.whits[run] = 0
			run++
		}
		v := grp.view.Load()
		for j := range v.targets {
			t := &v.targets[j]
			for k := 0; k < run; k++ {
				if t.gate != nil && sh.wseqs[k] < t.gate.at.Load() {
					continue // joined after this frame; its old cohort delivers it
				}
				f := &batch[sh.widx[k]]
				ms = append(ms, ioMsg{Buf: f.b.B, Addr: t.dst})
				acct = append(acct, wmeta{s: f.s, rx: t.rx})
				sh.whits[k]++
			}
		}
		for _, fade := range v.fades {
			for k := 0; k < run; k++ {
				if sh.wseqs[k] < fade.expiresAt.Load() {
					f := &batch[sh.widx[k]]
					ms = append(ms, ioMsg{Buf: f.b.B, Addr: fade.dst})
					acct = append(acct, wmeta{s: f.s, rx: fade.rx})
					sh.whits[k]++
				}
			}
		}
		for k := 0; k < run; k++ {
			if sh.whits[k] == 0 {
				batch[sh.widx[k]].s.counters.Drops.Add(1)
			} else if sh.whits[k] >= 2 {
				sh.counters.coalesced.Add(1)
			}
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
			// No progress and no error: a conn contract violation. Bail out
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
	for {
		select {
		case o := <-sh.writeq:
			o.b.Release()
		default:
			return
		}
	}
}
