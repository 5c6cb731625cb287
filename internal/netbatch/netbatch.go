// Package netbatch moves UDP datagrams in batches of up to BatchSize per
// syscall. On linux/amd64 and linux/arm64 (without the purego build tag) New
// returns a recvmmsg/sendmmsg implementation that can also fold runs of
// equal-size datagrams into single UDP GSO super-datagrams; everywhere else
// it returns a portable fallback that moves one datagram per syscall behind
// the same interface. The proxy engine's shard loops, the bench/ load
// generator and the throughput benchmarks all drive their sockets through
// this package, so client and server side batch alike.
//
// The fast path issues recvmmsg and sendmmsg as raw syscalls
// (syscall.RawSyscall6), bypassing the scheduler's syscall entry and exit,
// under one rule: a raw call never sleeps and its work is bounded. Every call
// is MSG_DONTWAIT on a non-blocking socket and moves at most one batch, so it
// may keep its P; waiting for a socket belongs to the netpoller alone (EAGAIN
// parks the goroutine through the socket's syscall.RawConn). Waking a reader
// thus costs one netpoll return, not a sysmon wake plus a P handoff. A conn
// that has run 100 µs without parking calls through the scheduler again
// until it next parks, so a saturated loop still lets sysmon hand its P to
// timers and netpoll-driven goroutines.
package netbatch

import (
	"net"
	"net/netip"
	"sync/atomic"
)

// BatchSize is the number of datagrams one ReadBatch or WriteBatch call can
// move with a single syscall on the fast path.
const BatchSize = 32

// Msg is one datagram slot in a batch.
type Msg struct {
	// Buf is the datagram payload: ReadBatch reads into it (recording the
	// filled length in N), WriteBatch sends exactly len(Buf) bytes.
	Buf []byte
	// N is the number of bytes received into Buf (read side only).
	N int
	// Addr is the datagram's source (read side) or destination (write side).
	Addr netip.AddrPort
	// Seg is the GRO segment size when the kernel delivered several coalesced
	// datagrams from one peer in this slot (read side, GRO-enabled fast path
	// only): Buf[:N] then holds ceil(N/Seg) back-to-back datagrams of Seg
	// bytes each (the last possibly shorter). Zero means one plain datagram.
	Seg int
}

// Conn is a batched datagram socket.
type Conn interface {
	// ReadBatch blocks until at least one datagram arrives, fills as many
	// slots of ms as the socket will yield without blocking again, and
	// returns the count. Each filled slot has N and Addr set; Buf contents
	// beyond N are unspecified.
	ReadBatch(ms []Msg) (int, error)
	// WriteBatch sends datagrams in order and returns how many were fully
	// sent. A non-nil error means ms[n] failed and was not sent; the caller
	// decides its fate and re-offers the rest. Partial progress without an
	// error is legal — the caller simply calls again with the remainder. On
	// a non-empty batch a call either makes progress or returns an error: it
	// never returns (0, nil).
	WriteBatch(ms []Msg) (int, error)
}

// Options tunes New.
type Options struct {
	// GSO enables UDP generic segmentation offload on the write side of the
	// fast path (no effect on the fallback): runs of equal-size datagrams to
	// one destination become a single kernel traversal. If the kernel rejects
	// the GSO control message the connection permanently falls back to plain
	// batched sends, starting with the rejected batch, so no datagram is lost.
	GSO bool
	// GRO enables UDP generic receive offload on the read side of the fast
	// path (no effect on the fallback): datagrams from one peer that the
	// kernel coalesced — notably GSO super-datagrams crossing loopback, which
	// then skip segmentation entirely — arrive as a single slot with Msg.Seg
	// recording the segment size. Callers must size their buffers for
	// coalesced delivery (64 KiB) and split on Seg themselves. If the running
	// kernel lacks UDP_GRO the option is silently ignored.
	GRO bool
	// RecvCalls and SendCalls, when non-nil, are incremented once per
	// receive/send syscall issued (including retries), so callers can derive
	// syscalls-per-packet and batch-fill figures.
	RecvCalls *atomic.Uint64
	SendCalls *atomic.Uint64
	// Segmented, when non-nil, counts the datagrams the kernel accepted
	// inside multi-segment GSO entries; it stays zero while GSO is off or
	// refused.
	Segmented *atomic.Uint64
	// Entries, when non-nil, counts the send entries the kernel accepted: a
	// GSO run counts once, a plain datagram once. Datagrams sent over
	// Entries is the mean number of datagrams per kernel traversal.
	Entries *atomic.Uint64
}

// counter is a nil-safe syscall tally.
func count(c *atomic.Uint64) {
	if c != nil {
		c.Add(1)
	}
}

// simpleConn is the portable Conn: one datagram per syscall through the net
// package, exactly the classic data path. It also serves as the explicit
// fallback on Linux when the raw-socket setup fails.
type simpleConn struct {
	conn      *net.UDPConn
	recvCalls *atomic.Uint64
	sendCalls *atomic.Uint64
	entries   *atomic.Uint64
}

// newSimpleConn is the portable Conn over conn.
func newSimpleConn(conn *net.UDPConn, opts Options) *simpleConn {
	return &simpleConn{conn: conn, recvCalls: opts.RecvCalls, sendCalls: opts.SendCalls, entries: opts.Entries}
}

func (c *simpleConn) ReadBatch(ms []Msg) (int, error) {
	count(c.recvCalls)
	n, from, err := c.conn.ReadFromUDPAddrPort(ms[0].Buf)
	if err != nil {
		return 0, err
	}
	ms[0].N = n
	ms[0].Addr = from
	ms[0].Seg = 0
	return 1, nil
}

func (c *simpleConn) WriteBatch(ms []Msg) (int, error) {
	for i := range ms {
		count(c.sendCalls)
		if _, err := c.conn.WriteToUDPAddrPort(ms[i].Buf, ms[i].Addr); err != nil {
			return i, err
		}
		count(c.entries)
	}
	return len(ms), nil
}
