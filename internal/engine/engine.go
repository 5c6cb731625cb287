// Package engine lifts the single-stream RAPIDware proxy into a concurrent
// multi-session relay over real UDP datagrams. Every datagram carries a
// 4-byte session ID followed by an ordinary packet frame (see
// internal/packet). The engine demultiplexes datagrams by session ID into
// per-session filter chains — each an independent instance of the paper's
// ControlThread, so filters can still be inserted, removed and reordered on
// any live session — and relays each chain's output either back to the
// session's sender (echo mode) or to a fixed downstream address.
//
// Execution model. A session's trunk runs to completion on the shard reader
// that received the datagram: validate and demux, every trunk stage in order,
// chainState.Deliver, the owning shard's output queue, which the reader itself
// sends once its read batch is done — one goroutine, no per-session queue,
// no byte pipe between stages, no copy and no re-parse; the received buffer
// (its session-ID prefix kept as the outgoing one's room) rides all the way
// to the socket write. The executor is filter.FrameChain, the only one the
// engine builds: every stage kind has a frame form. One lock per session
// serializes it — in shared-socket mode any shard's reader
// may receive any session's datagram, and the control plane splices from
// another goroutine — so a splice is a slice swap between two frames and a
// departing stage is flushed through the stages downstream of it first. The
// timed kinds (delay, ratelimit, jitter) hold frames and release them from
// one runtime timer per chain, through the same lock; each release is a
// batch (BeginBatch/EndBatch), so the frames that fall due together leave in
// one flush. A stage error evicts
// the session (chainErrors); a bad frame (filter.ErrBadFrame) is dropped and
// counted instead. Delivery-cohort tails (branch.go) run the same way,
// inline behind the trunk.
//
// Chains are built on the composition plane (internal/compose): the trunk
// and branch specs parse to plan IRs instantiated through the shared stage
// registry, every session binds its chain to a compose.Live, and the
// control plane can atomically edit any live session's chain — one
// compose.Edit (replace, insert, remove or move) through EditSession — while
// it carries traffic.
//
// A session's control path has one lock, Session.mu: park, unpark, close,
// edits, every adaptation decision and Session.Stats serialize on it, and
// the data path never takes it. Whoever removes a session from the table —
// a chain-failure eviction, CloseSession, the admission harvester or
// Engine.Close — closes it, exactly once.
//
// The data plane is sharded: Config.Shards reader goroutines (default one per
// CPU) pull datagrams off the socket, sessions live in a sharded table
// (per-shard lock, session ID hashed to shard) so open/lookup/close never touch
// a global lock, and each shard has one output queue and one send path: a
// batch's end sends what it queued — a reader's batch its trunk, bypass lane
// and cohort tails in one flush — and a producer outside every batch (timers,
// the control plane) sends for itself (shard.send). Socket I/O is batched at
// the syscall level where the platform allows: on linux/amd64 and linux/arm64
// the shard loops move up to 32 datagrams per recvmmsg/sendmmsg call and fold
// runs of equal-size datagrams to one destination into single UDP GSO
// super-datagrams; the socket takes UDP GRO too, so a GSO sender's run arrives
// as one receive slot, which the reader splits per datagram. Those two calls
// are raw syscalls that keep the reader's P: each is non-blocking and bounded
// by one batch, and a reader with nothing to read parks on the netpoller, so
// waking one costs a netpoll return and no scheduler handoff (see
// internal/netbatch). A reader that has run 100 µs without parking calls
// through the scheduler again, so the control plane and timed stages still get
// its P under sustained load. GSO is always attempted there; a socket whose
// kernel or route refuses it turns it off for itself and sends the refused
// batch down the plain path in the same call, losing nothing. Every other
// platform — or any build with the "purego" tag — transparently falls back to
// one datagram per syscall behind the same interface. The portable path runs
// every reader over one net.UDPConn; where the batched path runs, each shard
// can have its own SO_REUSEPORT socket instead (Config.ReusePort). Per-shard
// RecvCalls, SendCalls, GSODatagrams, SentDatagrams and SendEntries counters
// expose the achieved syscall and kernel-traversal amortization (see
// metrics.EngineStats).
//
// The steady-state relay path is allocation-free: each shard reader reads
// into receive slots it keeps for its whole life, mapped off the Go heap on
// Linux, and copies every datagram out into a pooled buffer of its own size
// class (packet.GetBuf), in which it travels through the chain to the
// shard's socket write, and session lookup, peer tracking (one atomic
// load per datagram) and counters all avoid per-packet allocation.
//
// The engine scales to a million mostly-idle sessions by making idleness
// free: after Config.IdleTTL without traffic a session is parked — its stage
// instances released, only identity, plan and counters retained — and
// transparently rebuilt on the next datagram (park.go). Session counts and
// engine stats are maintained as atomic gauges, so admission checks and
// Stats() are O(1)/O(shards) regardless of table size, and an explicit
// admission policy (Config.Admission) chooses between rejecting new sessions
// at capacity and harvesting the longest-parked one to make room.
//
// Fan-out sessions relay through a delivery tree instead of a single chain:
// the shared trunk's output is dispatched to delivery *cohorts* — one shared
// tail per distinct protection level, not one per receiver. Receivers whose tail plans and decided repair
// mechanisms match share one tail traversal and one FEC encode, fanned to all
// of them by the shard's flush (same payload, N address stamps); receivers
// needing no tail at all ride a bypass lane straight into the shard's queue.
// Each receiver's own loss reports still drive its protection level — a
// retune just moves the receiver between cohorts — so per-station adaptation
// costs one tail per *level*, not per station. Migration is exact by
// construction: dispatch and every membership change take the tree's lock,
// and a frame's destinations are fixed when it is enqueued, so a member gets
// each frame from exactly one cohort. Every flush is laid out
// destination-major — each receiver's datagrams, unicast or cohort, from any
// session, together — under one contract: per destination, data frames keep
// queue order and parity frames keep queue order. The batch conn folds each
// receiver's share of a flush into one GSO super-datagram per frame kind;
// the BypassHits and CoalescedSends counters (metrics.ShardStats) expose the
// fan-out fast paths. See branch.go and shard.flush.
//
// Receiver reports (packet.KindFeedback) close the adaptation loop on the
// read path. The shard reader that reads a report consumes it — it never
// enters a chain or opens a session, and is honored only from a legitimate
// receiver — and hands it to that receiver's own loop, which decides
// (adapt.Policy) and applies the decision right there: a splice at a unicast
// trunk's fec-adapt marker, or a fan-out member's move between cohorts. The
// maintenance tick ages out receivers that stopped reporting. An adaptive
// session owns no goroutine, queue or timer of its own. See adapt.go.
//
// Reliability stages close two more loops on the read path. NACK datagrams
// (packet.KindNack) are consumed like feedback — never entering a chain,
// never opening a session, honored only from legitimate receivers — and
// answered out of the session's ARQ retransmission history (an "arq" chain
// stage, or the history an adaptation loop spliced in), unicast back to the
// requester. And when a session's trunk carries a "replay=<n>" stage, a
// station joining the fan-out group mid-stream is primed with the retained
// window — replayed directly to it, as recorded — when it is admitted.
package engine

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rapidware/internal/adapt"
	"rapidware/internal/compose"
	"rapidware/internal/metrics"
	"rapidware/internal/multicast"
	"rapidware/internal/netbatch"
)

// Defaults applied by New.
const (
	// DefaultMaxSessions admits a million concurrent sessions. Idle sessions
	// park down to a few hundred bytes each (see park.go), so the practical
	// bound is live traffic and memory, not a configured ceiling; deployments
	// that want the old small cap set MaxSessions explicitly.
	DefaultMaxSessions = 1 << 20
	// maxShards caps Config.Shards; beyond this the readers only contend on
	// the kernel's socket lock.
	maxShards = 64
)

// Errors returned by the engine.
var (
	// ErrEngineClosed is returned by operations on a closed engine.
	ErrEngineClosed = errors.New("engine: closed")
	// ErrSessionLimit is returned when a new session would exceed MaxSessions.
	ErrSessionLimit = errors.New("engine: session limit reached")
	// ErrUnknownSession is returned by CloseSession for an unknown ID.
	ErrUnknownSession = errors.New("engine: unknown session")
)

// Config describes an Engine.
type Config struct {
	// Name identifies the engine in logs and control replies.
	Name string
	// ListenAddr is the UDP address to serve on (e.g. ":7400", "127.0.0.1:0").
	ListenAddr string
	// MaxSessions caps concurrent sessions; 0 selects DefaultMaxSessions.
	MaxSessions int
	// Shards sets the width of the data plane: the number of reader
	// goroutines, session-table shards and output queues. 0 selects
	// runtime.NumCPU(); values are rounded up to a power of two and capped
	// at 64.
	//
	// With several readers on one shared socket, two datagrams of the same
	// session can be delivered out of arrival order (reader A reads the
	// first, is descheduled, reader B delivers the second) — indistinguish-
	// able from ordinary UDP reordering, which every consumer of this
	// engine must already tolerate (FEC decoding is group-keyed, feedback
	// is highest-seq-wins). Deployments that want arrival order preserved
	// per flow should use ReusePort (the kernel pins each flow to one
	// socket, hence one reader) or Shards=1.
	Shards int
	// ReusePort gives each shard its own socket bound with SO_REUSEPORT so
	// the kernel spreads flows across shards instead of serializing receives
	// on one socket lock. Available where the batched socket path is —
	// linux/amd64 and linux/arm64 builds without the "purego" tag; New fails
	// elsewhere.
	ReusePort bool
	// Chain is the default chain spec instantiated for every new session, in
	// the compose spec language (compose.ParseWith, compose.ModeChain). Empty
	// means a pure relay (no interior filters).
	Chain string
	// Forward, when non-empty, is the downstream UDP address all relayed
	// datagrams are sent to. When empty the engine echoes each session's
	// output back to that session's most recent sender.
	Forward string
	// AllowRoaming lets a session's echo destination follow its most recent
	// sender (for mobile clients whose address changes mid-session). Off by
	// default: the peer is pinned to the session's first sender so a datagram
	// that merely guesses a session ID cannot redirect the stream.
	AllowRoaming bool
	// Fanout lists downstream UDP receiver addresses every session's output
	// is multicast to (application-level fan-out). Mutually exclusive with
	// Forward. Receivers can also be added and removed at run time through
	// FanoutGroup.
	Fanout []string
	// Branch is the per-receiver filter-tail spec of a fan-out session's
	// delivery tree, in the compose spec language's branch dialect
	// (compose.ModeBranch: chain stages plus the branch-only "fec-adapt"). The shared trunk chain's output runs through
	// one short tail per distinct plan and protection level, so each station
	// can get FEC strength and media fidelity matched to its own channel;
	// with no Branch spec and no adaptation every member shares the bypass
	// lane. Setting it enables fan-out (members come from Fanout or are added
	// through FanoutGroup at run time); mutually exclusive with Forward.
	Branch string
	// Adapt enables the closed-loop adaptation plane, driven by receiver
	// reports (KindFeedback datagrams sent upstream on the engine socket).
	// On unicast (echo/forward) sessions the receiver's loop splices an FEC
	// encoder into the session's live chain as loss appears, swaps in a
	// fresh encoder with the new (n,k) as loss moves between policy levels,
	// and removes it again on a clean link. On fan-out sessions adaptation is per receiver:
	// every member of the group gets its own loop, which moves it to the
	// delivery cohort its own loss calls for, so one station's bad radio
	// link no longer taxes the whole group with worst-case parity.
	Adapt bool
	// AdaptPolicy is the loss → (n,k) ladder used when the adaptation plane
	// is on (Adapt, or a Branch spec naming fec-adapt); the zero value
	// selects adapt.DefaultPolicy.
	AdaptPolicy adapt.Policy
	// ReportStaleness ages out receivers that stop reporting: a receiver
	// whose last loss report is older than this window no longer pins its
	// branch's (or, on unicast sessions, the session's) protection level —
	// a station that crashed without leaving the group decays back to the
	// clean-link path. 0 (the default) disables aging.
	ReportStaleness time.Duration
	// IdleTTL parks sessions that see no traffic (and no control operations)
	// for this long: the chain is released and only a compact record —
	// identity, plan, counters — remains; the next datagram rebuilds the
	// chain transparently. 0 (the default) disables parking. See park.go.
	IdleTTL time.Duration
	// Admission selects what happens to a new session arriving at
	// MaxSessions: AdmitReject (the default) refuses it, AdmitHarvest evicts
	// the longest-parked session (else the oldest-idle live one) to make
	// room.
	Admission AdmissionPolicy
	// Logger receives engine lifecycle messages; nil disables logging.
	Logger *log.Logger
}

// AdmissionPolicy selects the engine's behavior when a new session arrives
// while MaxSessions are registered.
type AdmissionPolicy string

const (
	// AdmitReject refuses new sessions at capacity (the default): the
	// datagram is dropped and counted, and the sender retries later.
	AdmitReject AdmissionPolicy = "reject"
	// AdmitHarvest evicts the longest-parked registered session — the
	// oldest-idle live one when none is parked — to make room for the new
	// one, so a full table churns instead of rejecting.
	AdmitHarvest AdmissionPolicy = "harvest"
)

// Stats is an engine-level counter snapshot, aggregated across shards on
// demand.
type Stats = metrics.EngineStats

// Engine is a multi-session UDP proxy with a sharded data plane.
type Engine struct {
	cfg    Config
	policy adapt.Policy // resolved adaptation policy (valid iff adaptOn)

	// reg is the stage registry session plans are instantiated through;
	// trunkPlan and branchPlan are the validated compositions every new
	// session's trunk chain and delivery-branch tails start from. When the
	// adaptation plane manages a chain, its plan carries a fec-adapt marker
	// stage (injected for adaptive trunks, from the Branch spec or injected
	// for branches) at the position the repair stage is spliced in.
	reg       *compose.Registry
	trunkPlan compose.Plan

	// Per-receiver delivery-branch configuration, resolved by New. adaptOn
	// enables the feedback plane at all: the trunk loop on unicast sessions,
	// per-member loops on fan-out.
	branchPlan compose.Plan
	adaptOn    bool

	local   net.Addr             // what LocalAddr reports; nil before Start
	closers []io.Closer          // what Close closes: the sockets, one per shard in ReusePort mode, else one shared
	forward netip.AddrPort       // zero value when echoing to senders
	group   *multicast.AddrGroup // non-nil when fanning out to receivers, through a delivery tree

	table  *table
	shards []shard

	// maintMu serializes maintenance ticks over maintLive, the scratch slice
	// a tick copies the live sessions into.
	maintMu   sync.Mutex
	maintLive []*Session

	batching atomic.Int32 // batches under way, engine-wide (see BeginBatch)
	closed   atomic.Bool
	active   atomic.Int64 // registered sessions (live + parked), admission-checked against MaxSessions
	stop     chan struct{}
	wg       sync.WaitGroup // shard readers and the maintenance loop
	bufShort sync.Once      // logs the first socket granted smaller buffers than asked for
}

// New validates cfg (including the chain spec) and returns an engine ready to
// Start.
func New(cfg Config) (*Engine, error) {
	if cfg.Name == "" {
		cfg.Name = "engine"
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	switch cfg.Admission {
	case "":
		cfg.Admission = AdmitReject
	case AdmitReject, AdmitHarvest:
	default:
		return nil, fmt.Errorf("engine: unknown admission policy %q (want %q or %q)",
			cfg.Admission, AdmitReject, AdmitHarvest)
	}
	if cfg.IdleTTL < 0 {
		return nil, errors.New("engine: IdleTTL must be >= 0")
	}
	cfg.Shards = resolveShards(cfg.Shards)
	if cfg.ReusePort && !reusePortAvailable {
		return nil, errors.New("engine: ReusePort requires linux/amd64 or linux/arm64 without the 'purego' tag")
	}
	reg := compose.Default()
	trunkPlan, err := compose.ParseWith(reg, cfg.Chain, compose.ModeChain)
	if err != nil {
		return nil, err
	}
	branchPlan, err := compose.ParseWith(reg, cfg.Branch, compose.ModeBranch)
	if err != nil {
		return nil, err
	}
	if cfg.Forward != "" && (len(cfg.Fanout) > 0 || cfg.Branch != "") {
		return nil, errors.New("engine: Forward and Fanout/Branch are mutually exclusive")
	}
	adaptOn := cfg.Adapt || branchPlan.Has(compose.KindFECAdapt)
	if adaptOn && trunkPlan.Has("fec-encode") {
		// A static encoder under the adaptation plane would re-encode the
		// plane's own encoder's output (parity-of-parity) the moment loss
		// appears. The plane owns FEC encoding; fail fast instead.
		return nil, errors.New("engine: the adaptation plane manages the FEC encoder itself; remove fec-encode from Chain")
	}
	if adaptOn && branchPlan.Has("fec-encode") {
		return nil, errors.New("engine: the adaptation plane manages each branch's FEC encoder; remove fec-encode from Branch (or drop fec-adapt/Adapt)")
	}
	e := &Engine{
		cfg:        cfg,
		reg:        reg,
		trunkPlan:  trunkPlan,
		branchPlan: branchPlan,
		adaptOn:    adaptOn,
		table:      newTable(cfg.Shards),
		shards:     make([]shard, cfg.Shards),
		stop:       make(chan struct{}),
	}
	for i := range e.shards {
		e.shards[i] = shard{idx: i, eng: e, rcvBuf: -1, sndBuf: -1}
	}
	if adaptOn {
		e.policy = cfg.AdaptPolicy
		if len(e.policy.Levels) == 0 {
			e.policy = adapt.DefaultPolicy()
		}
		if err := e.policy.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Forward != "" {
		fwd, err := net.ResolveUDPAddr("udp", cfg.Forward)
		if err != nil {
			return nil, fmt.Errorf("engine: resolve forward %q: %w", cfg.Forward, err)
		}
		// Unmap 4-in-6 addresses so writes work regardless of the socket's
		// address family.
		e.forward = multicast.UnmapAddrPort(fwd.AddrPort())
	}
	if len(cfg.Fanout) > 0 || cfg.Branch != "" {
		e.group = multicast.NewAddrGroup(cfg.Name + "-fanout")
		for _, addr := range cfg.Fanout {
			udp, err := net.ResolveUDPAddr("udp", addr)
			if err != nil {
				return nil, fmt.Errorf("engine: resolve fanout %q: %w", addr, err)
			}
			e.group.Add(udp.AddrPort())
		}
	}
	// Chains owned by the adaptation plane carry a fec-adapt marker in their
	// plan: the position the repair stage activates at, visible in
	// (and preserved by) control-plane recomposition. Specs without an
	// explicit marker get one injected right after the chain source, the
	// historical default splice position.
	if e.adaptOn {
		marker := []compose.Stage{{Kind: compose.KindFECAdapt}}
		if e.group != nil {
			if !e.branchPlan.Has(compose.KindFECAdapt) {
				e.branchPlan.Stages = append(marker, e.branchPlan.Stages...)
			}
		} else {
			e.trunkPlan.Stages = append(marker, e.trunkPlan.Stages...)
		}
	}
	return e, nil
}

// trunkMode returns the validation mode for live rewrites of a session's
// trunk plan: markers are legal exactly when the trunk is owned by an
// adaptation loop.
func (e *Engine) trunkMode() compose.Mode {
	mode := compose.ModeChain
	if e.adaptOn && e.group == nil {
		mode.AllowMarker = true
	}
	return mode
}

// Kinds returns the stage kinds sessions of this engine can compose — the
// control protocol's kind listing.
func (e *Engine) Kinds() []string { return e.reg.Kinds() }

// resolveShards normalizes a Shards setting: 0 means one shard per CPU, and
// the result is clamped to [1, maxShards] and rounded up to a power of two so
// the table mask stays a single AND.
func resolveShards(n int) int {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FanoutGroup returns the downstream receiver group sessions multicast to,
// or nil when the engine echoes or forwards instead. Membership may be
// changed at run time; sessions pick the new set up on their next packet or
// receiver report — on the delivery-tree path a joining member gets a fresh
// branch (with its own adaptation loop) and a departing member's branch is
// torn down, so a removed station's last loss report cannot pin anything.
func (e *Engine) FanoutGroup() *multicast.AddrGroup { return e.group }

// receiverAuthorized reports whether a feedback datagram's source is one of
// the session's legitimate downstream receivers: a fan-out group member, the
// forward destination, or (in echo mode) the session's pinned peer. The check
// mirrors the data path's peer pinning — an off-path host that merely
// guesses a session ID must not be able to steer its FEC level. from must
// already be in canonical (unmapped) form; e.forward and group members are
// stored that way, and the peer is canonicalized here.
func (e *Engine) receiverAuthorized(s *Session, from netip.AddrPort) bool {
	switch {
	case e.group != nil:
		return e.group.Contains(from)
	case e.forward.IsValid():
		return from == e.forward
	default:
		return from == multicast.UnmapAddrPort(s.Peer())
	}
}

// Start binds the UDP socket(s), wraps each shard's in a batch conn, and
// starts the engine on them.
func (e *Engine) Start() error {
	conns, err := e.listen()
	if err != nil {
		return err
	}
	bconns, closers := make([]batchConn, len(e.shards)), make([]io.Closer, len(conns))
	for i := range e.shards {
		conn, c := conns[i%len(conns)], &e.shards[i].counters
		closers[i%len(conns)] = conn
		e.shards[i].rcvBuf, e.shards[i].sndBuf = grantedBuffers(conn)
		bconns[i] = netbatch.New(conn, netbatch.Options{
			GSO:       gsoAvailable,
			GRO:       gsoAvailable,
			RecvCalls: &c.recvCalls,
			SendCalls: &c.sendCalls,
			Segmented: &c.gsoDatagrams,
			Entries:   &c.sendEntries,
		})
	}
	e.start(bconns, conns[0].LocalAddr(), closers)
	return nil
}

// start runs the engine on conns, one per shard: LocalAddr reports local, and
// Close closes closers, which must end every conn's ReadBatch with
// net.ErrClosed. Every shard's conn is wired before any reader starts: a
// reader may send any shard's queue.
func (e *Engine) start(conns []batchConn, local net.Addr, closers []io.Closer) {
	e.local, e.closers = local, closers
	for i := range e.shards {
		e.shards[i].bconn = conns[i]
	}
	e.wg.Add(len(e.shards))
	for i := range e.shards {
		go e.shards[i].readLoop()
	}
	// One maintenance ticker for the whole engine serves both timer-driven
	// concerns — stale-receiver sweeps and idle-session parking — so the
	// timer goroutine count is O(1), not O(sessions).
	if iv := e.maintInterval(); iv > 0 {
		e.wg.Add(1)
		go e.maintenanceLoop(iv)
	}
	mode := "shared socket"
	if e.cfg.ReusePort {
		mode = "SO_REUSEPORT sockets"
	}
	syscalls := "single-datagram I/O"
	if batchIOAvailable {
		syscalls = "batched mmsg I/O + GSO/GRO where the kernel accepts them"
	}
	e.logf("serving UDP on %s (%d shards over %s, %s, max %d sessions, chain %q)",
		local, len(e.shards), mode, syscalls, e.cfg.MaxSessions, e.cfg.Chain)
	if e.adaptOn {
		e.logf("adaptation plane on (policy %s)", e.policy)
	}
	if e.cfg.IdleTTL > 0 {
		e.logf("idle harvester on (TTL %s, admission %s)", e.cfg.IdleTTL, e.cfg.Admission)
	}
	if e.group != nil {
		e.logf("fanning out to %d receivers through delivery cohorts (branch spec %q)", e.group.Len(), e.cfg.Branch)
	}
}

// listen binds the engine's socket(s): one shared net.UDPConn on the
// portable path, or one SO_REUSEPORT socket per shard when Config.ReusePort
// is set.
func (e *Engine) listen() ([]*net.UDPConn, error) {
	addr, err := net.ResolveUDPAddr("udp", e.cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("engine: resolve %q: %w", e.cfg.ListenAddr, err)
	}
	if !e.cfg.ReusePort {
		conn, err := net.ListenUDP("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("engine: listen %q: %w", e.cfg.ListenAddr, err)
		}
		e.tuneConn(conn, sockBufBytes)
		return []*net.UDPConn{conn}, nil
	}
	first, err := listenReusePort(e.cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("engine: listen %q: %w", e.cfg.ListenAddr, err)
	}
	e.tuneConn(first, sockBufBytes)
	conns := []*net.UDPConn{first}
	// Later sockets must bind the concrete address the first one resolved
	// (":0" picks a port only once).
	bound := first.LocalAddr().String()
	for i := 1; i < len(e.shards); i++ {
		conn, err := listenReusePort(bound)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, fmt.Errorf("engine: listen %q (shard %d): %w", bound, i, err)
		}
		e.tuneConn(conn, sockBufBytes)
		conns = append(conns, conn)
	}
	return conns, nil
}

// sockBufBytes is the kernel receive and send buffer size the engine asks
// for on each of its sockets: room for the bursts of thousands of concurrent
// sessions.
const sockBufBytes = 4 << 20

// tuneConn asks the kernel for size-byte receive and send buffers on conn and
// reads back what it granted; Linux caps them at net.core.rmem_max and
// wmem_max. A shortfall is not an error — the engine relays with smaller
// buffers, with less room for a burst — so it is logged, once per engine.
func (e *Engine) tuneConn(conn *net.UDPConn, size int) {
	err := errors.Join(conn.SetReadBuffer(size), conn.SetWriteBuffer(size))
	rcv, snd := grantedBuffers(conn)
	if err == nil && (rcv < 0 || rcv >= size && snd >= size) {
		return
	}
	e.bufShort.Do(func() {
		if err != nil {
			e.logf("socket buffers: asking for %d KiB: %v", size>>10, err)
			return
		}
		e.logf("socket buffers: asked for %d KiB, granted %d KiB receive and %d KiB send (net.core.rmem_max and wmem_max cap them); the kernel drops a burst beyond them",
			size>>10, rcv>>10, snd>>10)
	})
}

// LocalAddr returns the bound UDP address (nil before Start). In ReusePort
// mode every shard's socket shares this address.
func (e *Engine) LocalAddr() net.Addr { return e.local }

// shardFor returns the shard owning session id.
func (e *Engine) shardFor(id uint32) *shard {
	return &e.shards[e.table.shardIndex(id)]
}

// openSession creates, registers and starts a session for id. The first
// datagram's source becomes the session's initial peer. The slow path runs
// lock-free: admission is one atomic against the global cap, the session —
// chain build and adaptation loop included — is constructed with no lock
// held, and only the final registration takes the owning table shard's lock.
// When two readers race to open the same ID, the loser tears its construction
// down and adopts the winner.
func (e *Engine) openSession(id uint32, peer netip.AddrPort) (*Session, error) {
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	// Admission is one atomic against the global cap. Under the harvest
	// policy a full table evicts its longest-parked session and retries; the
	// attempt bound keeps a pathological race (every freed slot snatched by
	// concurrent opens) from spinning the read loop.
	for attempt := 0; ; attempt++ {
		if n := e.active.Add(1); n <= int64(e.cfg.MaxSessions) {
			break
		}
		e.active.Add(-1)
		if e.cfg.Admission != AdmitHarvest || attempt >= 2 || !e.harvestOldestIdle(id) {
			e.shardFor(id).counters.admitDrops.Add(1)
			return nil, ErrSessionLimit
		}
	}
	s, err := newSession(e, id, peer)
	if err != nil {
		e.active.Add(-1)
		return nil, err
	}
	winner, inserted := e.table.insert(id, s, e.closed.Load)
	if !inserted {
		// Lost the construction race to another reader, or the engine closed
		// underneath us: release the slot and discard the unused session.
		e.active.Add(-1)
		s.close()
		if winner == nil {
			return nil, ErrEngineClosed
		}
		return winner, nil
	}
	e.shardFor(id).counters.opened.Add(1)
	return s, nil
}

// chainFailed evicts a session whose trunk failed — a stage failed on a frame
// (cause says why) — so a dead session cannot occupy a slot and blackhole its
// ID forever; the next datagram opens a fresh one. It runs on the delivering
// goroutine after it has left the executor's lock. Only the incarnation that
// failed is evicted, and only once: one that park or close retired is no
// longer current, and of several readers reporting one failure only the one
// that removes the session counts it.
func (e *Engine) chainFailed(s *Session, cs *chainState, cause error) {
	if ok, _ := e.evict(s, cs); ok {
		s.shard.counters.chainErrors.Add(1)
		e.logf("session %d: chain failed, evicting: %v", s.id, cause)
	}
}

// evict removes s from the table and closes it. Whoever removes a session
// from the table closes it, exactly once: evict for a chain failure,
// CloseSession and the admission harvester, Engine.Close for the rest. It
// holds s.mu from the check to the close, so cs, when not nil, restricts the
// eviction to that incarnation while it is still current. It reports whether
// this call removed s, and close's error.
func (e *Engine) evict(s *Session, cs *chainState) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cs != nil && s.cs.Load() != cs || !e.table.remove(s.id, s) {
		return false, nil
	}
	e.active.Add(-1)
	return true, s.closeLocked()
}

// Session returns the live session with the given ID, or nil.
func (e *Engine) Session(id uint32) *Session { return e.table.lookup(id) }

// SessionCount returns the number of registered sessions (live + parked),
// summed from per-shard gauges in O(shards).
func (e *Engine) SessionCount() int { return e.table.count() }

// CloseSession terminates one session and releases its resources.
func (e *Engine) CloseSession(id uint32) error {
	if s := e.table.lookup(id); s != nil {
		if ok, err := e.evict(s, nil); ok {
			return err
		}
	}
	return fmt.Errorf("%w: %d", ErrUnknownSession, id)
}

// SessionStats yields every registered session's counters, live and parked,
// ordered by session ID: the control plane's SessionSource. It holds one
// pointer per session, not a list of stats: each session's Stats is taken as
// it is yielded.
func (e *Engine) SessionStats(yield func(metrics.SessionStats) bool) {
	sessions := e.table.snapshot()
	slices.SortFunc(sessions, func(a, b *Session) int { return cmp.Compare(a.id, b.id) })
	for _, s := range sessions {
		if !yield(s.Stats()) {
			return
		}
	}
}

// Stats aggregates the per-shard counters into an engine-level snapshot. The
// whole snapshot is O(shards) atomic loads — it never walks the session
// table, so reading it under million-session churn costs the same as on an
// empty engine.
func (e *Engine) Stats() Stats {
	st := Stats{
		ActiveSessions: e.table.count(),
		Shards:         len(e.shards),
	}
	for i := range e.shards {
		c := &e.shards[i].counters
		st.TotalSessions += c.opened.Load()
		st.Datagrams += c.datagrams.Load()
		st.Malformed += c.malformed.Load()
		st.Rejected += c.rejected.Load()
		st.ChainErrors += c.chainErrors.Load()
		st.Feedback += c.feedback.Load()
		st.Nacks += c.nacks.Load()
		st.Retransmits += c.retransmits.Load()
		st.NackRefusals += c.nackRefused.Load()
		st.BatchedWrites += c.writes.Load()
		st.WriteFlushes += c.flushes.Load()
		st.WriteDrops += c.writeDrops.Load()
		st.RecvCalls += c.recvCalls.Load()
		st.SendCalls += c.sendCalls.Load()
		st.GSODatagrams += c.gsoDatagrams.Load()
		st.SendEntries += c.sendEntries.Load()
		st.SentDatagrams += c.sentDatagrams.Load()
		st.BypassHits += c.bypassHits.Load()
		st.CoalescedSends += c.coalesced.Load()
		st.Parks += c.parks.Load()
		st.Unparks += c.unparks.Load()
		st.Harvested += c.harvested.Load()
		st.AdmissionDrops += c.admitDrops.Load()
	}
	st.ParkedSessions = e.table.parked()
	if st.LiveSessions = st.ActiveSessions - st.ParkedSessions; st.LiveSessions < 0 {
		st.LiveSessions = 0 // transient skew between independent gauges
	}
	return st
}

// EngineStats implements the control plane's EngineSource; it is Stats under
// the name the interface wants.
func (e *Engine) EngineStats() metrics.EngineStats { return e.Stats() }

// ShardStats snapshots every shard's counters, ordered by shard index.
func (e *Engine) ShardStats() []metrics.ShardStats {
	out := make([]metrics.ShardStats, len(e.shards))
	for i := range e.shards {
		out[i] = e.shards[i].stats()
	}
	return out
}

// Close shuts down the shard runtime and every session. It is idempotent.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	sessions := e.table.sweep()
	e.active.Add(-int64(len(sessions)))
	var firstErr error
	for _, c := range e.closers { // unblocks every reader
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, s := range sessions {
		if err := s.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	close(e.stop)
	e.wg.Wait()
	e.logf("closed (%d sessions served)", e.Stats().TotalSessions)
	return firstErr
}

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logger != nil {
		e.cfg.Logger.Printf("engine %s: "+format, append([]any{e.cfg.Name}, args...)...)
	}
}
