package engine

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"
)

// simAddr is the address an engine started on simulated conns reports as its
// own. No socket is bound to it.
var simAddr = net.UDPAddrFromAddrPort(netip.MustParseAddrPort("192.0.2.1:7400"))

// simDgram is one inbound datagram a simConn serves to the shard reader, or
// with seg set a GRO slot: seg-byte datagrams back to back in data, the last
// possibly shorter.
type simDgram struct {
	data []byte
	from netip.AddrPort
	seg  int
}

// simConn is a shard's batch conn with no socket behind it. ReadBatch serves
// the batches a test puts on in, and returns net.ErrClosed once the conn is
// closed. WriteBatch hands each call to write, the test's rule for how much of
// it the conn takes (all of it when write is nil), and logs the call: its
// count, the kernel entries it would take with GSO (see gsoEntries), and a
// copy of every datagram taken, in send order. A discarding conn logs
// nothing, so a send through it allocates nothing.
type simConn struct {
	in        chan []simDgram
	done      chan struct{}
	closeOnce sync.Once
	write     func([]ioMsg) (int, error)
	discard   bool

	mu      sync.Mutex
	sent    []ioMsg
	calls   int
	entries int
}

var errInjectedFault = errors.New("injected send fault")

// newSimConn returns a conn whose input holds 4096 batches, more than any
// test scripts, so a test queues its whole script without waiting for the
// reader.
func newSimConn() *simConn {
	return &simConn{in: make(chan []simDgram, 4096), done: make(chan struct{})}
}

func (c *simConn) ReadBatch(ms []ioMsg) (int, error) {
	var batch []simDgram
	select {
	case batch = <-c.in:
	case <-c.done:
		return 0, net.ErrClosed
	}
	if len(batch) > len(ms) {
		return 0, fmt.Errorf("simulated batch of %d exceeds reader capacity %d", len(batch), len(ms))
	}
	for i := range batch {
		ms[i].N = copy(ms[i].Buf, batch[i].data)
		ms[i].Addr = batch[i].from
		ms[i].Seg = batch[i].seg
	}
	return len(batch), nil
}

func (c *simConn) WriteBatch(ms []ioMsg) (n int, err error) {
	n = len(ms)
	if c.write != nil {
		n, err = c.write(ms)
	}
	if c.discard {
		return n, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	c.entries += gsoEntries(ms)
	for _, m := range ms[:n] {
		c.sent = append(c.sent, ioMsg{Buf: append([]byte(nil), m.Buf...), Addr: m.Addr})
	}
	return n, err
}

// Close ends the conn's reads: ReadBatch returns net.ErrClosed from then on.
func (c *simConn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return nil
}

// gsoEntries counts the kernel send entries netbatch's GSO path folds ms
// into: a run of up to 64 adjacent datagrams of one size to one destination
// is one entry. (netbatch also caps a run at 65,000 bytes, which the small
// datagrams of the tests never reach.)
func gsoEntries(ms []ioMsg) int {
	entries := 0
	for i := 0; i < len(ms); entries++ {
		run := 1
		for i+run < len(ms) && run < 64 && ms[i+run].Addr == ms[i].Addr && len(ms[i+run].Buf) == len(ms[i].Buf) {
			run++
		}
		i += run
	}
	return entries
}

// sentTo returns the datagrams sent to addr, in send order.
func (c *simConn) sentTo(addr netip.AddrPort) [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out [][]byte
	for _, m := range c.sent {
		if m.Addr == addr {
			out = append(out, m.Buf)
		}
	}
	return out
}

func (c *simConn) sentTotal() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sent)
}

// counts returns the WriteBatch calls so far and the GSO entries they took.
func (c *simConn) counts() (calls, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls, c.entries
}

// refuse returns a write rule that takes every datagram up to the first one
// to addr and returns err there: with an error, a send failure that names
// that datagram, as the WriteBatch contract has it; with nil, a stall that
// breaks the contract, no progress and no error when addr heads the call.
func refuse(addr netip.AddrPort, err error) func([]ioMsg) (int, error) {
	return func(ms []ioMsg) (int, error) {
		for i := range ms {
			if ms[i].Addr == addr {
				return i, err
			}
		}
		return len(ms), nil
	}
}

// gated returns a write rule that holds each call until gate is closed,
// after reporting the call on entered while entered has room.
func gated(entered, gate chan struct{}) func([]ioMsg) (int, error) {
	return func(ms []ioMsg) (int, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		return len(ms), nil
	}
}

// startSim starts e on one new simulated conn per shard, which it returns,
// and closes e when the test ends. No socket is bound: LocalAddr reports
// simAddr, and Close stops the readers by closing their conns.
func startSim(t *testing.T, e *Engine) []*simConn {
	t.Helper()
	conns := make([]*simConn, len(e.shards))
	bconns := make([]batchConn, len(conns))
	closers := make([]io.Closer, len(conns))
	for i := range conns {
		conns[i] = newSimConn()
		bconns[i], closers[i] = conns[i], conns[i]
	}
	e.start(bconns, simAddr, closers)
	t.Cleanup(func() { e.Close() })
	return conns
}

// newSimEngine builds a one-shard engine from cfg and starts it on a
// simulated conn.
func newSimEngine(t *testing.T, cfg Config) (*Engine, *simConn) {
	t.Helper()
	cfg.Shards = 1
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e, startSim(t, e)[0]
}

// TestEngineStartsOnSimulatedConns starts a two-shard engine on simulated
// conns. It binds no socket, so LocalAddr is the simulated address; both
// readers relay; and Close alone, with no conn's input closed, returns once
// every reader has left ReadBatch.
func TestEngineStartsOnSimulatedConns(t *testing.T) {
	e, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	conns := startSim(t, e)
	if got := e.LocalAddr(); got != simAddr {
		t.Fatalf("LocalAddr = %v, want the simulated %v", got, simAddr)
	}
	for i, c := range conns {
		c.in <- []simDgram{{data: mustDatagram(t, uint32(i+1), 0, []byte("x")), from: recvPeer}}
	}
	waitFor(t, "an echo through each reader", func() bool { return e.Stats().SentDatagrams == 2 })
	closed := make(chan error, 1)
	go func() { closed <- e.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return: a reader is still reading")
	}
}
