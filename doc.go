// Package rapidware is a Go reproduction of "Design of Composable Proxy
// Filters for Heterogeneous Mobile Computing" (McKinley & Padmanabhan, IEEE
// Workshop on Wireless Networks and Mobile Computing / ICDCS-21, 2001).
//
// The library implements the paper's composable proxy filter chains with live
// insertion, removal and reordering (with the loss-free, frame-boundary splice
// the paper built from detachable streams), the (n,k) block-erasure FEC
// filters used for audio multicast over lossy wireless LANs, the RAPIDware
// observer/responder adaptation components, the Pavilion collaborative-session
// substrate, and a wireless channel simulator that stands in for the paper's
// WaveLAN testbed.
//
// Beyond the reproduction, internal/engine scales the proxy to thousands of
// concurrent sessions over real UDP datagrams on a sharded data plane:
// per-CPU reader goroutines demultiplex datagrams by a 4-byte session ID
// prefix into per-session filter chains, sessions live in a sharded table
// (ID hashed to shard, per-shard lock — no global lock on the data path),
// and each shard's reader sends what a receive batch produced in one flush.
//
// A session's chain runs to completion on the reader that received the
// datagram. Every stage body is a frame function (filter.FrameFunc: one
// validated frame in a pooled buffer in, any number emitted) that reads the
// header fields it needs in place — a payload rewrite (transcode, mono,
// compress, decompress) writes the input header and its new payload into one
// pooled frame, packet.Reframe — and the engine
// has one executor, filter.FrameChain: demux, every stage in order, send and
// the shard's output queue, all on one goroutine under one per-session lock
// (several readers may serve one session, and the control plane splices from
// its own goroutine) — no per-session goroutine, queue or byte pipe, no copy
// and no re-parse, so a live session is a plain struct and the buffer the
// reader copied a datagram into is the one sendmmsg sends. The reader keeps
// its 64 KiB receive slots, off the Go heap, and copies each datagram out
// into a pooled buffer of its own size class, so a datagram costs its size,
// not a slot. The timed kinds — delay,
// ratelimit, jitter — hold frames and release them from one runtime timer
// per chain, under the same lock. FrameChain is the only executor in the
// repository, and the paper's figures run on it directly: the audio proxy of
// Figures 6 and 7 is a sender FrameChain over the FEC encoder whose sink draws
// the simulated channel's losses and hands each surviving frame to one
// decoder FrameChain per station, all on the caller's goroutine, and the
// repair comparison's ARQ arm is a FrameChain over arq.SenderFilter.
// filter.Chain, a pump that reads frames from a source endpoint through a
// FrameChain into a sink endpoint on one goroutine, is left to rapidproxy's
// stream mode, the live-insertion experiment (E3), the quickstart and
// transcoding examples and bench/layers. Pooled buffers travel end
// to end so the steady-state relay path does not allocate. Socket I/O itself
// is batched (internal/netbatch): on Linux each shard moves up to 32
// datagrams per recvmmsg/sendmmsg call — coalescing equal-size runs further
// with UDP GSO, always attempted and dropped per socket when the kernel
// refuses it, without losing the refused batch, and taking a GSO sender's
// run as one UDP GRO slot that the reader splits per datagram — with a portable
// single-datagram fallback elsewhere, holding the data plane under 0.25 syscalls per packet
// at steady state. Where the batched path runs (linux/amd64 and linux/arm64
// without "purego") the engine can also bind one SO_REUSEPORT socket per
// shard so the kernel spreads flows across readers. Engine,
// per-shard and per-session counters — including syscall and batch-fill
// economics — are exposed through the control protocol. cmd/rapidproxy serves
// the engine (with -pprof for live profiling, served by a stdlib-only
// /debug/pprof responder so the binary links no HTTP stack, and graceful signal-driven
// drain); cmd/rapidctl inspects it (sessions, stats, stats -json).
//
// Scale past the hot set comes from idle-session parking: a session with no
// traffic for Config.IdleTTL is drained losslessly and torn down to a compact
// record — identity, counters, canonical plan, adaptation snapshot —
// releasing its stage instances, and is rebuilt transparently by the next
// datagram or control operation. One engine-wide maintenance ticker drives harvesting and
// stale-receiver sweeps over the live sessions only; admission
// (Config.MaxSessions, default 1M, with reject or harvest-longest-parked
// policy at the cap) and Stats() read atomic gauges rather than walking the
// table.
//
// The engine also hosts a closed-loop adaptation plane: downstream receivers
// report observed loss upstream as feedback datagrams (packet.Report), and
// the shard reader that reads a report hands it to that receiver's own
// adaptation loop, which decides and applies it there: a unicast trunk's
// loop splices an FEC encoder into the live chain or removes it; a fan-out
// member's loop moves the member to the delivery cohort its decision selects.
// Every level change is an encoder swap — a fresh fixed-code
// fecproxy.EncoderFilter at the trunk's marker, or the cohort's own — and
// every encoder of a session numbers its FEC groups from one session-wide
// counter. Decisions follow the loss→code policy ladder in the
// transport-agnostic internal/adapt package. The observer/bus/responder
// raplets of internal/raplet remain the paper's
// demonstrator (experiment E2b); the engine does not use them.
//
// Composition itself is a dedicated plane, internal/compose: one validated
// plan IR for every chain in the system, one parser for the spec language,
// one canonical pretty-printer, and one stage registry shared by the engine's
// trunk chains, its delivery-branch tails and the stream proxy. Every live
// session — the stream proxy's one stream is session 1 — binds its chain to a
// compose.Live, whose transactional
// recompose diffs plans, carries matching stage instances across rewrites,
// and applies the change as a single atomic splice (FrameChain.SetInterior)
// — chains are rebuilt mid-traffic without dropping a relayed packet. The
// splice is a slice swap under the chain's lock, between two frames by
// construction, with departing stages flushed through what was downstream of
// them: the guarantee the paper's pause-drain-reconnect protocol gave, held
// by the design. The control plane drives it end to end:
// OpRecompose (rapidctl compose <session> '<spec>'), session-scoped
// insert/remove/move (rapidctl -session <id> ...), and a per-stage counter
// view in rapidctl sessions; it is the only way a running chain changes.
// Adaptation loops express their FEC splices through the same plane via a
// fec-adapt marker stage in the plan.
//
// Reliability spans a spectrum, not just FEC. The compose plane registers
// the ARQ stages (internal/arq) as first-class chain stages: "arq" keeps a
// bounded retransmission history the engine answers receiver NACKs from
// (packet.KindNack, consumed on the read loop like feedback, authorized like
// feedback), "jitter=<ms>" is the receiver-side smoothing buffer that lets a
// repair slot back into sequence, and "replay=<n>" retains the recent past so
// a station that joins a fan-out session mid-stream has its fresh branch
// primed with the retained window — the collaborative session's late-join
// catch-up. arq and replay are one frame history, arq.SenderFilter: each data
// frame is copied into a reused slot keyed by sequence number; a NACK is
// answered with a pooled copy (Lookup), a late joiner primed by a walk of the
// window, oldest first (Visit). With adaptation on, each
// receiver's loop escalates across mechanisms from the full report
// (loss and RTT): clean links run the pure relay, moderate loss splices
// proactive parity, and rare loss on a high-RTT feedback path swaps the
// encoder for a retransmission history, all through the same live-recompose
// plane.
//
// Fan-out sessions deliver through a per-receiver delivery tree, the
// paper's heterogeneity claim at engine scale: the session's shared trunk
// chain feeds a short filter tail per protection level (none at all for the
// clean-link bypass lane, where plain fan-out puts every member), run inline
// behind it, whose output the shard's flush stamps for every member of the
// multicast group (multicast.AddrGroup) at that level; each receiver's level
// is driven by its own loss reports, so one degraded station no longer taxes
// the whole group with worst-case parity. Branch tails are
// configurable (Config.Branch: adaptive FEC via fec-adapt, rate limiting,
// audio transcoding, media thinning), receivers that stop reporting age out
// after a staleness window (Config.ReportStaleness), and the per-receiver
// breakdown — counters, tail stages, current (n,k) — is exposed through the
// control protocol (rapidctl sessions [-json]).
//
// See README.md for a tour (including the engine architecture and UDP wire
// format); internal/experiment holds one runner per table and figure of the
// paper. The benchmarks in
// bench_test.go regenerate every figure of the paper's evaluation plus the
// engine's micro-benchmarks, whose allocation bounds are tests
// (alloc_test.go); bench/ (its own module, see bench/README.md) is the one
// load generator and end-to-end benchmark, six wire-level workloads against
// a live rapidproxy — relay saturation, session churn and parking, fan-out
// feedback among them; cmd/fecbench prints the paper tables from the
// command line.
package rapidware
