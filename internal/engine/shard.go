package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"math/bits"
	"net"
	"net/netip"
	"runtime/pprof"
	"strconv"
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
	// flushSize is the most datagrams one flush sends any one destination,
	// data and parity together, and so the window inside which flush sends a
	// destination's parity frames after its data frames (see flush). A
	// destination's data frames in one flush span at most 64 FEC groups, so a
	// group's parity, unicast or cohort, trails at most 63 other groups' data
	// to a receiver: within the 64 groups a receiver's FEC decoder tracks
	// (fec.NewFrameDecoder's default), which therefore still has the group
	// when its parity arrives. It also caps a destination's share of a flush
	// at one maximal GSO run per kind (netbatch's 64 segments), and the
	// expansion scratch at flushSize x destinations datagrams.
	flushSize = 64
	// flushEntries caps the queue entries one flush takes, and sizes the
	// shard's per-entry flush scratch. A fan-out reader batch of 32 datagrams
	// queues about 96 entries, which fit one flush.
	flushEntries = writeqSize / 4
	// sendHighWater is the queue length at which a producer sends mid-batch:
	// a full flush gains nothing by waiting, and a fan-out's GRO batch
	// (thousands of datagrams, several entries each) cannot overflow writeqSize.
	sendHighWater = flushEntries
	// maxReadBackoffShift caps the transient-read-error sleep at
	// 1ms << maxReadBackoffShift (256ms).
	maxReadBackoffShift = 8
)

// shardCounters is one shard's counter block. Reader-side counters
// (datagrams, malformed, rejected, feedback, recvCalls) are incremented by
// the shard's reader goroutine; opened and chainErrors are attributed to the
// shard that owns the session; writes, flushes, writeDrops, sendCalls,
// gsoDatagrams, sendEntries and sentDatagrams count the shard's queue,
// whoever sends it. Everything is atomic so Stats can aggregate without
// stopping the data plane.
type shardCounters struct {
	datagrams   atomic.Uint64
	malformed   atomic.Uint64
	rejected    atomic.Uint64
	feedback    atomic.Uint64
	nacks       atomic.Uint64
	retransmits atomic.Uint64
	nackRefused atomic.Uint64 // retransmissions a requester's budget refused
	opened      atomic.Uint64
	chainErrors atomic.Uint64
	writes      atomic.Uint64
	flushes     atomic.Uint64
	writeDrops  atomic.Uint64
	recvCalls   atomic.Uint64
	sendCalls   atomic.Uint64
	// Park/admission accounting (see park.go): lifecycle transitions. The
	// shard's parked gauge is its table shard's parked list.
	parks      atomic.Uint64
	unparks    atomic.Uint64
	harvested  atomic.Uint64
	admitDrops atomic.Uint64
	// Delivery-cohort accounting: bypassHits counts trunk frames that took a
	// bypass lane straight into the shard's queue (no chain, no copy);
	// coalesced counts cohort outbounds a flush expanded to two or more
	// destinations — frames that traversed (and were encoded by) one shared
	// chain instead of one per receiver.
	bypassHits atomic.Uint64
	coalesced  atomic.Uint64
	// gsoDatagrams counts datagrams the kernel accepted inside multi-segment
	// GSO sends (netbatch.Options.Segmented); sendEntries counts the send
	// entries it accepted, a GSO run once (netbatch.Options.Entries), and
	// sentDatagrams the datagrams it accepted, a cohort frame once per
	// member.
	gsoDatagrams  atomic.Uint64
	sendEntries   atomic.Uint64
	sentDatagrams atomic.Uint64
	_             [16]byte // pad so neighboring shards' counters don't false-share
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
// datagram batches off its socket, the output queue of the sessions it owns
// (one send path, see enqueue), and the counter block both report into. In the
// portable single-socket mode all shards share one net.UDPConn (the kernel
// serializes receives, but validation, demux and queueing overlap across
// readers); in SO_REUSEPORT mode each shard owns its own socket and the kernel
// spreads flows across them.
type shard struct {
	idx      int
	eng      *Engine
	bconn    batchConn // wired by Engine.start, before any reader runs
	counters shardCounters

	// The output queue. queued mirrors len(wq) for readers without wmu.
	wmu    sync.Mutex
	wq     []outbound // guarded by wmu
	queued atomic.Int32

	// sending is the combining send's try-lock (see send): its holder alone
	// sends, in queue order, and owns the scratch below, reused so a flush
	// never allocates in steady state. class and at hold each entry's frame
	// class and destination slot (see flush), dests holds one flush's
	// destinations, dtab finds them by address, views lists the flush's
	// distinct cohort views and vdests their members' dests indices.
	sending atomic.Bool
	spare   []outbound
	class   [flushEntries]uint8
	at      [flushEntries]int32
	wmsgs   []ioMsg
	wacct   []wmeta
	dests   [][2]int32
	dtab    []dtabEntry
	dgen    uint32
	views   []flushView
	vdests  []int32
}

// dtabEntry is one slot of the open-addressed table that maps a flush's
// destinations to their index in shard.dests. A slot whose gen is not the
// current flush's is empty, so the table resets in O(1). The key is the
// address's 16-byte form, as two words, and the port, without an IPv6 zone:
// destinations that differ only in zone share a dests entry, which keeps each
// one's order.
type dtabEntry struct {
	hi, lo uint64
	port   uint16
	gen    uint32
	idx    int32
}

// flushView is one distinct cohort view of a flush: its members' dests
// indices are vdests[off : off+len(*v)].
type flushView struct {
	v   *[]target
	off int32
}

// stats snapshots this shard's counters.
func (sh *shard) stats() metrics.ShardStats {
	return metrics.ShardStats{
		Shard:        sh.idx,
		Sessions:     sh.eng.table.countShard(sh.idx),
		Datagrams:    sh.counters.datagrams.Load(),
		Malformed:    sh.counters.malformed.Load(),
		Rejected:     sh.counters.rejected.Load(),
		Feedback:     sh.counters.feedback.Load(),
		Nacks:        sh.counters.nacks.Load(),
		Retransmits:  sh.counters.retransmits.Load(),
		NackRefusals: sh.counters.nackRefused.Load(),
		ChainErrors:  sh.counters.chainErrors.Load(),
		Writes:       sh.counters.writes.Load(),
		Flushes:      sh.counters.flushes.Load(),
		WriteDrops:   sh.counters.writeDrops.Load(),
		RecvCalls:    sh.counters.recvCalls.Load(),
		SendCalls:    sh.counters.sendCalls.Load(),

		GSODatagrams:  sh.counters.gsoDatagrams.Load(),
		SendEntries:   sh.counters.sendEntries.Load(),
		SentDatagrams: sh.counters.sentDatagrams.Load(),

		Parked:         sh.eng.table.parkedShard(sh.idx),
		Parks:          sh.counters.parks.Load(),
		Unparks:        sh.counters.unparks.Load(),
		Harvested:      sh.counters.harvested.Load(),
		AdmissionDrops: sh.counters.admitDrops.Load(),

		BypassHits:     sh.counters.bypassHits.Load(),
		CoalescedSends: sh.counters.coalesced.Load(),
	}
}

// labelGoroutine sets pprof labels (key, value pairs) on the calling
// goroutine, once at its start, so CPU and goroutine profiles split per loop
// — loop=reader with shard=<idx>, loop=maint — at no per-datagram cost.
func labelGoroutine(kv ...string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels(kv...)))
}

// readLoop pulls datagram batches off the shard's socket and routes each to
// its session. The reader owns batchSize receive slots of packet.MaxDatagram
// bytes for its whole life (receiveSlots) and reads every batch into them.
// handleSlot copies each datagram out into a pooled buffer of its own size
// class, so a datagram costs its size class, not a 64 KiB slot, and no slot
// byte leaves the loop. What a batch emits — trunk, bypass lane and cohort
// tails — leaves at its end (endBatch), with no goroutine handoff on the
// forwarding path. Transient read errors back off
// exponentially — both the retry pace and the logging — so a persistent
// socket fault can neither spin a core nor storm the log.
func (sh *shard) readLoop() {
	e := sh.eng
	defer e.wg.Done()
	labelGoroutine("shard", strconv.Itoa(sh.idx), "loop", "reader")
	slots, unmap := receiveSlots(batchSize * packet.MaxDatagram)
	defer unmap()
	var ms [batchSize]ioMsg
	for i := range ms {
		ms[i].Buf = slots[i*packet.MaxDatagram : (i+1)*packet.MaxDatagram]
	}
	var errStreak uint
	for {
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
		e.beginBatch()
		dgrams := 0
		for i := range ms[:n] {
			dgrams += sh.handleSlot(&ms[i])
		}
		sh.counters.datagrams.Add(uint64(dgrams))
		e.endBatch()
	}
}

// beginBatch starts a batch, a run of enqueues that endBatch sends: a reader's
// received batch, or a run of frames from outside it (replay priming, a
// cohort's drain, a retirement), which then shares its flushes. endBatch sends
// every shard queue holding entries: a batch may feed any shard's sessions,
// and any producer may have left its entry to a batch under way.
func (e *Engine) beginBatch() { e.batching.Add(1) }

func (e *Engine) endBatch() {
	e.batching.Add(-1) // first: a producer that saw the batch left its entry to us
	for i := range e.shards {
		if sh := &e.shards[i]; sh.queued.Load() > 0 {
			sh.send()
		}
	}
}

// handleSlot hands each datagram of one filled receive slot to
// handleDatagram, in order, each copied into packet.GetBuf of its length, and
// returns how many the slot held. A plain slot holds one datagram. A slot the
// kernel filled by UDP GRO holds a GSO sender's run from one source: Seg
// bytes a datagram, the last possibly shorter. Each is validated and demuxed
// on its own, so a bad one drops only itself.
func (sh *shard) handleSlot(m *ioMsg) int {
	seg := m.Seg
	if seg <= 0 {
		seg = m.N
	}
	count := 0
	for off := 0; ; off += seg {
		dgram := m.Buf[off:min(off+seg, m.N)]
		b := packet.GetBuf(len(dgram))
		copy(b.B, dgram)
		sh.handleDatagram(b, len(dgram), m.Addr)
		count++
		if off+seg >= m.N {
			return count
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

// enqueue queues one outbound datagram and takes o.b, every producer's one
// send path: while a batch is under way it waits for a batch end; a producer
// outside every batch (a stage's timer, a control edit) sends itself, as does
// one reaching sendHighWater.
func (sh *shard) enqueue(o outbound) {
	if sh.push(o) && (sh.queued.Load() >= sendHighWater || sh.eng.batching.Load() == 0) {
		sh.send()
	}
}

// push appends o to the queue, or drops it (UDP-style, counted) when full,
// so a saturated socket cannot stall the session chains feeding it.
func (sh *shard) push(o outbound) bool {
	sh.wmu.Lock()
	if len(sh.wq) < writeqSize {
		sh.wq = append(sh.wq, o)
		sh.queued.Store(int32(len(sh.wq)))
		sh.wmu.Unlock()
		return true
	}
	sh.wmu.Unlock()
	sh.discard(o)
	return false
}

// discard drops one queue entry that will never be sent — the queue was full,
// or the engine is closing — counting it to its session, its receiver or
// every member of its view, and the shard's write drops, and releases it.
func (sh *shard) discard(o outbound) {
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
}

// send sends the queue unless another goroutine is sending it (flat
// combining, Hendler et al., SPAA 2010). The holder takes the whole queue, so
// flush's contract holds, and re-checks after letting go, so nothing pushed
// meanwhile is stranded — unless a batch is under way, whose sends take it: a
// holder under a session's lock sends one pass of a reader's traffic at most.
// After Close the queue is discarded, counted. A sync.Mutex would not do: a
// failed TryLock reads it with a plain load, unordered against the push.
func (sh *shard) send() {
	for sh.sending.CompareAndSwap(false, true) {
		if sh.eng.closed.Load() {
			sh.drainQueue()
		} else {
			sh.sendQueue()
		}
		sh.sending.Store(false)
		if sh.queued.Load() == 0 || sh.eng.batching.Load() > 0 {
			return
		}
	}
}

// sendQueue takes the whole queue and flushes it, one prefix at a time (see
// flush), sendBatch splitting each flush into syscalls. The caller holds
// sending.
func (sh *shard) sendQueue() {
	sh.wmu.Lock()
	b := sh.wq
	sh.wq = sh.spare
	sh.queued.Store(0)
	sh.wmu.Unlock()
	for q := b; len(q) > 0; {
		q = q[sh.flush(q):]
	}
	clear(b)
	sh.spare = b[:0]
}

// frameClass is a datagram's class in flush's layout: 1 for an FEC parity
// frame, 0 (data) for every other kind.
func frameClass(dgram []byte) int {
	if packet.FrameKind(dgram[packet.SessionIDSize:]) == packet.KindParity {
		return 1
	}
	return 0
}

// flush expands a prefix of the drained queue q into the wire-level datagram
// list — a unicast entry is one datagram to its dst, a cohort entry one
// datagram per member of its view, sharing the payload buffer by reference —
// sends it, releases the prefix's buffers, and returns how many entries it
// took. The prefix is cut by what the layout below needs, not by a count of
// entries: it ends before the first entry that would give any destination a
// (flushSize+1)-th datagram, or at flushEntries entries. flush owns the
// prefix's buffers.
//
// The list is destination-major: each destination's datagrams are adjacent,
// whichever sessions, views and unicast entries they came from, and within a
// destination its data frames come first, in queue order, then its FEC parity
// frames, in queue order. A parity frame is two bytes longer than its group's
// data (the FEC share length prefix), so keeping queue order across kinds
// would cut every run of equal-size datagrams to a destination — what the
// batch conn's UDP GSO path folds into one segmented send — at each group
// boundary; as laid out, a receiver's share of the flush is one data run and
// one parity run. The contract is one sentence: per destination, data frames
// keep queue order and parity frames keep queue order. A group's parity may
// thus trail later groups' data to the same receiver, within one flush:
// flushSize keeps that inside the groups a receiver's FEC decoder tracks.
//
// One pass resolves every entry's destinations — a view's members once per
// flush, a unicast dst through dtab — and counts each destination's data and
// parity datagrams; prefix sums turn the counts into positions, and a second
// pass places every (destination, frame) pair. A frame's kind is read once.
func (sh *shard) flush(q []outbound) int {
	sh.dgen++
	if sh.dgen == 0 { // wrapped: stale slots could look current
		clear(sh.dtab)
		sh.dgen = 1
	}
	sh.dests, sh.views, sh.vdests = sh.dests[:0], sh.views[:0], sh.vdests[:0]
	last := -1 // the views index of the previous cohort entry
	end := 0   // the prefix taken so far
	for ; end < min(len(q), flushEntries); end++ {
		o := &q[end]
		c := frameClass(o.b.B)
		if o.view == nil {
			d := sh.destIndex(o.dst)
			if sh.dests[d][0]+sh.dests[d][1] >= flushSize {
				break
			}
			sh.class[end], sh.at[end] = uint8(c), d
			sh.dests[d][c]++
			continue
		}
		if last < 0 || sh.views[last].v != o.view {
			last = sh.viewIndex(o.view)
		}
		off := sh.views[last].off
		members := sh.vdests[off : off+int32(len(*o.view))]
		over := false
		for _, d := range members {
			sh.dests[d][c]++
			over = over || sh.dests[d][0]+sh.dests[d][1] > flushSize
		}
		if over && end > 0 { // the first entry always goes, so every flush makes progress
			for _, d := range members {
				sh.dests[d][c]--
			}
			break
		}
		sh.class[end], sh.at[end] = uint8(c), off
		switch n := len(members); {
		case n == 0:
			o.s.counters.Drops.Add(1)
		case n >= 2:
			sh.counters.coalesced.Add(1)
		}
	}
	batch := q[:end]
	total := int32(0)
	for i := range sh.dests {
		n := &sh.dests[i]
		data, parity := n[0], n[1]
		n[0], n[1] = total, total+data
		total += data + parity
	}
	if int(total) > cap(sh.wmsgs) {
		sh.wmsgs, sh.wacct = make([]ioMsg, total), make([]wmeta, total)
	}
	// Placed field by field: a composite literal is built on the stack and
	// copied in 16-byte moves that stall on store forwarding. The send side
	// reads only Buf and Addr.
	ms, acct := sh.wmsgs[:total], sh.wacct[:total]
	for i := range batch {
		o := &batch[i]
		c := sh.class[i]
		if o.view == nil {
			n := &sh.dests[sh.at[i]][c]
			m, a := &ms[*n], &acct[*n]
			m.Buf, m.Addr, a.s, a.rx = o.b.B, o.dst, o.s, o.rx
			*n++
			continue
		}
		for k, t := range *o.view {
			n := &sh.dests[sh.vdests[sh.at[i]+int32(k)]][c]
			m, a := &ms[*n], &acct[*n]
			m.Buf, m.Addr, a.s, a.rx = o.b.B, t.dst, o.s, t.rx
			*n++
		}
	}
	sh.counters.writes.Add(uint64(end)) // before any of it can be received
	sh.counters.flushes.Add(1)
	sh.sendBatch(ms, acct)
	for i := range batch {
		batch[i].b.Release()
	}
	clear(sh.views) // drop the views' references until the next flush
	return end
}

// viewIndex returns v's index in the flush's views, resolving its members'
// destinations on first sight. A flush holds few distinct views — one per
// cohort, and a new one only when membership changes — so a scan finds it.
func (sh *shard) viewIndex(v *[]target) int {
	for i := range sh.views {
		if sh.views[i].v == v {
			return i
		}
	}
	off := int32(len(sh.vdests))
	for _, t := range *v {
		sh.vdests = append(sh.vdests, sh.destIndex(t.dst))
	}
	sh.views = append(sh.views, flushView{v: v, off: off})
	return len(sh.views) - 1
}

// destIndex returns addr's index in the flush's dests, adding it on first
// sight; dests[i] counts destination i's data and parity datagrams until
// flush lays the flush out, and then holds where the next of each goes. dtab
// stays at most half full, so a lookup probes O(1) slots.
func (sh *shard) destIndex(addr netip.AddrPort) int32 {
	if 2*(len(sh.dests)+1) > len(sh.dtab) {
		sh.growDtab()
	}
	hi, lo := addrWords(addr.Addr())
	port := addr.Port()
	e := sh.probe(hi, lo, port)
	if e.gen != sh.dgen {
		// Field by field, as flush places datagrams.
		e.hi, e.lo, e.port, e.gen, e.idx = hi, lo, port, sh.dgen, int32(len(sh.dests))
		sh.dests = append(sh.dests, [2]int32{})
	}
	return e.idx
}

// addrWords returns a's 16-byte form as two words.
func addrWords(a netip.Addr) (hi, lo uint64) {
	if a.Is4() {
		// The common case, and cheaper: reading both words back from As16's
		// array stalls on store forwarding.
		b := a.As4()
		return 0, 0xffff<<32 | uint64(binary.BigEndian.Uint32(b[:]))
	}
	b := a.As16()
	return binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
}

// probe returns the dtab slot for (hi, lo, port): the slot holding it, or
// the empty one where it goes.
func (sh *shard) probe(hi, lo uint64, port uint16) *dtabEntry {
	h := hi ^ lo ^ uint64(port)<<16
	h ^= h >> 32
	h *= 0x9e3779b97f4a7c15 // Fibonacci hashing: the top bits pick the slot
	mask := uint64(len(sh.dtab) - 1)
	for i := h >> bits.LeadingZeros64(mask); ; i = (i + 1) & mask {
		if e := &sh.dtab[i]; e.gen != sh.dgen || (e.lo == lo && e.hi == hi && e.port == port) {
			return e
		}
	}
}

// growDtab doubles dtab (to at least 2 x flushSize slots) and re-enters the
// flush's destinations so far.
func (sh *shard) growDtab() {
	old := sh.dtab
	sh.dtab = make([]dtabEntry, max(2*len(old), 2*flushSize))
	for _, e := range old {
		if e.gen == sh.dgen {
			*sh.probe(e.hi, e.lo, e.port) = e
		}
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
		credit(ms[sent:sent+n], acct[sent:sent+n])
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

// credit adds sent datagrams to their sessions' and receivers' output
// counters, once per run of adjacent datagrams with the same session and
// receiver. flush lays datagrams out destination-major, so a run is usually
// a destination's whole share of one session's output, and the totals stay
// exact at a few atomic adds per flush instead of four per datagram.
func credit(ms []ioMsg, acct []wmeta) {
	for i := 0; i < len(ms); {
		a := acct[i]
		var pkts, bytes uint64
		for ; i < len(ms) && acct[i] == a; i++ {
			pkts++
			bytes += uint64(len(ms[i].Buf))
		}
		a.s.counters.OutPackets.Add(pkts)
		a.s.counters.OutBytes.Add(bytes)
		if a.rx != nil {
			a.rx.OutPackets.Add(pkts)
			a.rx.OutBytes.Add(bytes)
		}
	}
}

// drainQueue discards what is queued once the engine is closed, counted.
func (sh *shard) drainQueue() {
	sh.wmu.Lock()
	q := sh.wq
	sh.wq = nil
	sh.queued.Store(0)
	sh.wmu.Unlock()
	for _, o := range q {
		sh.discard(o)
	}
}
