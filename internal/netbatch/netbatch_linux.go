//go:build linux && (amd64 || arm64) && !purego

package netbatch

import (
	"net"
	"net/netip"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Linux fast path: recvmmsg/sendmmsg move up to BatchSize datagrams per
// syscall, issued directly on the socket's raw fd through its
// syscall.RawConn so the runtime's netpoller still parks the goroutine on
// EAGAIN (the callbacks return false) instead of spinning. While the conn
// keeps parking, both calls are raw syscalls that keep their P (see
// mmsgConn). Restricted to
// amd64/arm64 — both little-endian, which the raw sockaddr port handling
// below assumes — and disabled by the purego tag so CI can prove the
// portable path on the same host.
const (
	// Available reports that this build moves datagrams in true batches.
	Available = true
	// GSOAvailable reports that this build can attempt UDP GSO sends.
	GSOAvailable = true

	sizeofSockaddrAny = syscall.SizeofSockaddrInet6 // largest name this path produces

	// UDP GSO: one sendmmsg entry whose iovecs hold several equal-size
	// datagrams to the same peer, with a UDP_SEGMENT cmsg telling the kernel
	// where to cut. SOL_UDP/UDP_SEGMENT are absent from the syscall package.
	solUDP      = 17
	udpSegment  = 103
	udpGRO      = 104
	maxGSOSegs  = 64    // kernel limit on segments per GSO send
	maxGSOBytes = 65000 // stay inside one UDP datagram's payload bound
)

// rawQuantum is how long a conn may run without parking on the netpoller and
// still issue its calls raw (see mmsgConn): a few batches, and several of
// sysmon's fastest 20 µs ticks.
const rawQuantum = 100 * time.Microsecond

// monoEpoch anchors the conns' park stamps on the monotonic clock.
var monoEpoch = time.Now()

// mmsghdr is struct mmsghdr on 64-bit Linux: a msghdr plus the kernel's
// per-message byte count, padded to 8-byte alignment.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// gsoCtrlSpace is the aligned room for one UDP_SEGMENT cmsg (uint16 payload).
var gsoCtrlSpace = syscall.CmsgSpace(2)

// groCtrlSpace is the aligned room for one UDP_GRO cmsg (int payload): the
// kernel reports the segment size of a coalesced delivery as a 4-byte int.
var groCtrlSpace = syscall.CmsgSpace(4)

// mmsgConn is the recvmmsg/sendmmsg Conn. All syscall scaffolding (headers,
// iovecs, name and control buffers) is preallocated at BatchSize width — the
// write iovecs at BatchSize full GSO runs — so steady state does not allocate.
//
// Both syscalls are normally raw (syscall.RawSyscall6, not Syscall6), so
// they skip the scheduler's entersyscall/exitsyscall: no sysmon wake after an
// idle spell, and no P handed to another thread when a loopback send outlasts
// sysmon's tick. That is safe because of one rule, which every call here
// keeps: each call is MSG_DONTWAIT on a non-blocking socket, so it never
// sleeps in the kernel, and its work is bounded by one batch (at most
// BatchSize headers and BatchSize*maxGSOSegs iovecs). It may therefore keep
// its P for its duration; a raw call that slept would hold that P, and any
// stop-the-world, until it returned. Waiting belongs to the netpoller alone:
// EAGAIN returns false to the RawConn, which parks the goroutine until the
// socket is ready. A call that could block must never be issued raw.
//
// Raw calls are never scheduling points, so a conn that stops parking (a
// saturated loop) would keep its P until preempted, and timers and
// netpoll-driven goroutines waiting for that P would wait up to 10 ms. So a
// call is raw only while the conn has parked within the last rawQuantum;
// past that it goes through Syscall6, and sysmon can hand the P to them as
// it always could.
type mmsgConn struct {
	rc syscall.RawConn
	// v4 marks an AF_INET socket: destination names must then be
	// sockaddr_in, not sockaddr_in6.
	v4        bool
	gso       atomic.Bool
	gro       bool
	recvCalls *atomic.Uint64
	sendCalls *atomic.Uint64
	segmented *atomic.Uint64
	entries   *atomic.Uint64

	rhdrs  []mmsghdr
	riovs  []syscall.Iovec
	rnames [][sizeofSockaddrAny]byte
	rctrl  []byte // groCtrlSpace bytes per read header, when gro is on

	whdrs  []mmsghdr
	wiovs  []syscall.Iovec
	wnames [][sizeofSockaddrAny]byte
	wctrl  []byte // gsoCtrlSpace bytes per write header
	wsegs  []int  // datagrams folded into each write header (GSO runs)

	// The RawConn callbacks are bound once here and their per-call state
	// rides in these fields: a fresh closure per batch would escape to the
	// heap and put an allocation back on every syscall the batching is
	// meant to amortize. A Conn is driven by at most one reading and one
	// writing goroutine, so the read and write state never race.
	readFn    func(fd uintptr) bool
	writeFn   func(fd uintptr) bool
	rn, rgot  int
	roperr    error
	wn, wsent int
	woperr    error
	// woke is when the conn last woke from a netpoller park, in ns since
	// monoEpoch; parkPending while a park is under way, so the first call
	// after the wake stamps it. Both sides share it.
	woke atomic.Int64
}

// parkPending marks mmsgConn.woke while a park is under way.
const parkPending = -1

// New wraps conn in a batched Conn. The fast path needs the socket's raw fd;
// if that is unreachable the portable one-datagram path is returned instead.
func New(conn *net.UDPConn, opts Options) Conn {
	rc, err := conn.SyscallConn()
	if err != nil {
		return newSimpleConn(conn, opts)
	}
	c := &mmsgConn{
		rc:        rc,
		recvCalls: opts.RecvCalls,
		sendCalls: opts.SendCalls,
		segmented: opts.Segmented,
		entries:   opts.Entries,
		rhdrs:     make([]mmsghdr, BatchSize),
		riovs:     make([]syscall.Iovec, BatchSize),
		rnames:    make([][sizeofSockaddrAny]byte, BatchSize),
		whdrs:     make([]mmsghdr, BatchSize),
		// With iovecs for only BatchSize datagrams, a fan-out flush — each
		// frame times every member — would cap its runs at a few datagrams
		// per destination.
		wiovs:  make([]syscall.Iovec, BatchSize*maxGSOSegs),
		wnames: make([][sizeofSockaddrAny]byte, BatchSize),
		wctrl:  make([]byte, BatchSize*gsoCtrlSpace),
		wsegs:  make([]int, BatchSize),
	}
	if la, ok := conn.LocalAddr().(*net.UDPAddr); ok && la.IP.To4() != nil {
		c.v4 = true
	}
	c.gso.Store(opts.GSO)
	if opts.GRO {
		// Opting the socket into coalesced delivery needs kernel support
		// (5.0+); on refusal the socket simply keeps per-datagram delivery
		// and Msg.Seg stays zero.
		var soerr error
		if rc.Control(func(fd uintptr) {
			soerr = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1)
		}) == nil && soerr == nil {
			c.gro = true
			c.rctrl = make([]byte, BatchSize*groCtrlSpace)
		}
	}
	c.woke.Store(parkPending)
	c.readFn = c.recvmmsg
	c.writeFn = c.sendmmsg
	return c
}

// mmsg issues one non-blocking recvmmsg or sendmmsg over the first n of hdrs:
// raw while the conn has parked within rawQuantum, through the scheduler
// otherwise.
func (c *mmsgConn) mmsg(trap, fd uintptr, hdrs *mmsghdr, n int) (uintptr, syscall.Errno) {
	if c.raw(int64(time.Since(monoEpoch))) {
		r1, _, errno := syscall.RawSyscall6(trap, fd, uintptr(unsafe.Pointer(hdrs)), uintptr(n), syscall.MSG_DONTWAIT, 0, 0)
		return r1, errno
	}
	r1, _, errno := syscall.Syscall6(trap, fd, uintptr(unsafe.Pointer(hdrs)), uintptr(n), syscall.MSG_DONTWAIT, 0, 0)
	return r1, errno
}

// raw reports whether a call at now (ns since monoEpoch) may be issued raw:
// the conn woke from a park less than rawQuantum ago. The first call after a
// park stamps the wake.
func (c *mmsgConn) raw(now int64) bool {
	woke := c.woke.Load()
	if woke == parkPending {
		c.woke.CompareAndSwap(parkPending, now)
		return true
	}
	return now-woke < int64(rawQuantum)
}

// recvmmsg is the bound netpoller read callback: one non-blocking recvmmsg
// attempt per invocation round, parking on EAGAIN.
func (c *mmsgConn) recvmmsg(fd uintptr) bool {
	for {
		count(c.recvCalls)
		r1, errno := c.mmsg(syscall.SYS_RECVMMSG, fd, &c.rhdrs[0], c.rn)
		switch errno {
		case 0:
			c.rgot = int(r1)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			c.woke.Store(parkPending)
			return false // park on the netpoller until readable
		default:
			c.roperr = errno
			return true
		}
	}
}

// sendmmsg is recvmmsg's write-side twin.
func (c *mmsgConn) sendmmsg(fd uintptr) bool {
	for {
		count(c.sendCalls)
		r1, errno := c.mmsg(sysSendmmsg, fd, &c.whdrs[0], c.wn)
		switch errno {
		case 0:
			c.wsent = int(r1)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			c.woke.Store(parkPending)
			return false // park on the netpoller until writable
		default:
			c.woperr = errno
			return true
		}
	}
}

func (c *mmsgConn) ReadBatch(ms []Msg) (int, error) {
	n := min(len(ms), len(c.rhdrs))
	for i := 0; i < n; i++ {
		b := ms[i].Buf
		c.riovs[i] = syscall.Iovec{Base: &b[0]}
		c.riovs[i].SetLen(len(b))
		c.rhdrs[i] = mmsghdr{}
		c.rhdrs[i].hdr.Name = &c.rnames[i][0]
		c.rhdrs[i].hdr.Namelen = sizeofSockaddrAny
		c.rhdrs[i].hdr.Iov = &c.riovs[i]
		c.rhdrs[i].hdr.Iovlen = 1
		if c.gro {
			c.rhdrs[i].hdr.Control = &c.rctrl[i*groCtrlSpace]
			c.rhdrs[i].hdr.Controllen = uint64(groCtrlSpace)
		}
	}
	c.rn, c.rgot, c.roperr = n, 0, nil
	err := c.rc.Read(c.readFn)
	if err != nil {
		return 0, err
	}
	if c.roperr != nil {
		return 0, c.roperr
	}
	got := c.rgot
	for i := 0; i < got; i++ {
		ms[i].N = int(c.rhdrs[i].len)
		ms[i].Addr = c.name(&c.rnames[i])
		ms[i].Seg = 0
		if c.gro && c.rhdrs[i].hdr.Controllen >= uint64(syscall.CmsgLen(4)) {
			ctrl := c.rctrl[i*groCtrlSpace:]
			cm := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
			if cm.Level == solUDP && cm.Type == udpGRO {
				ms[i].Seg = int(*(*int32)(unsafe.Pointer(&ctrl[syscall.CmsgLen(0)])))
			}
		}
	}
	return got, nil
}

func (c *mmsgConn) WriteBatch(ms []Msg) (int, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	if c.gso.Load() {
		n, err := c.writeBatchGSO(ms)
		if n > 0 || c.wsegs[0] == 1 || !gsoRejected(err) {
			return n, err
		}
		// The kernel refused the first entry's UDP_SEGMENT and sent nothing:
		// GSO goes off for this conn for good, and the same batch goes down
		// the plain path in this call, so a refusal loses no datagram.
		c.gso.Store(false)
	}
	n := min(len(ms), len(c.whdrs))
	for i := 0; i < n; i++ {
		b := ms[i].Buf
		c.wiovs[i] = syscall.Iovec{Base: &b[0]}
		c.wiovs[i].SetLen(len(b))
		c.whdrs[i] = mmsghdr{}
		c.whdrs[i].hdr.Name = &c.wnames[i][0]
		c.whdrs[i].hdr.Namelen = c.putName(&c.wnames[i], ms[i].Addr)
		c.whdrs[i].hdr.Iov = &c.wiovs[i]
		c.whdrs[i].hdr.Iovlen = 1
	}
	return c.send(n, nil)
}

// writeBatchGSO coalesces runs of equal-size datagrams to one destination
// into single sendmmsg entries carrying a UDP_SEGMENT cmsg, so the kernel
// segments once instead of traversing the stack per datagram. Datagrams that
// do not form a run go out as plain entries in the same syscall.
func (c *mmsgConn) writeBatchGSO(ms []Msg) (int, error) {
	h, iv, i := 0, 0, 0
	for i < len(ms) && h < len(c.whdrs) && iv < len(c.wiovs) {
		sz := len(ms[i].Buf)
		run := 1
		for i+run < len(ms) && run < maxGSOSegs && iv+run < len(c.wiovs) &&
			ms[i+run].Addr == ms[i].Addr && len(ms[i+run].Buf) == sz &&
			(run+1)*sz <= maxGSOBytes {
			run++
		}
		for k := 0; k < run; k++ {
			b := ms[i+k].Buf
			c.wiovs[iv+k] = syscall.Iovec{Base: &b[0]}
			c.wiovs[iv+k].SetLen(sz)
		}
		hdr := &c.whdrs[h]
		*hdr = mmsghdr{}
		hdr.hdr.Name = &c.wnames[h][0]
		hdr.hdr.Namelen = c.putName(&c.wnames[h], ms[i].Addr)
		hdr.hdr.Iov = &c.wiovs[iv]
		hdr.hdr.Iovlen = uint64(run)
		if run > 1 {
			ctrl := c.wctrl[h*gsoCtrlSpace : (h+1)*gsoCtrlSpace]
			cm := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
			cm.Level = solUDP
			cm.Type = udpSegment
			cm.SetLen(syscall.CmsgLen(2))
			*(*uint16)(unsafe.Pointer(&ctrl[syscall.CmsgLen(0)])) = uint16(sz)
			hdr.hdr.Control = &ctrl[0]
			hdr.hdr.Controllen = uint64(gsoCtrlSpace)
		}
		c.wsegs[h] = run
		h++
		iv += run
		i += run
	}
	return c.send(h, c.wsegs[:h])
}

// send issues one sendmmsg over the first n prepared headers and translates
// the result back to datagram counts (segs maps each header to the number of
// datagrams folded into it; nil means one each).
func (c *mmsgConn) send(n int, segs []int) (int, error) {
	if n == 0 {
		return 0, nil
	}
	c.wn, c.wsent, c.woperr = n, 0, nil
	err := c.rc.Write(c.writeFn)
	sent, operr := c.wsent, c.woperr
	if c.entries != nil && sent > 0 {
		c.entries.Add(uint64(sent))
	}
	if segs != nil {
		// sendmmsg counts entries; the caller counts datagrams.
		total, segmented := 0, 0
		for _, s := range segs[:sent] {
			total += s
			if s > 1 {
				segmented += s
			}
		}
		if c.segmented != nil && segmented > 0 {
			c.segmented.Add(uint64(segmented))
		}
		sent = total
	}
	if err != nil {
		return sent, err
	}
	// sendmmsg reports an error only when the first message failed, so a
	// non-nil operr always points at ms[sent] with sent == 0 entries done.
	return sent, operr
}

// gsoRejected classifies errnos that mean the kernel or NIC path cannot do
// UDP GSO at all (as opposed to a per-datagram failure).
func gsoRejected(err error) bool {
	switch err {
	case syscall.EINVAL, syscall.EOPNOTSUPP, syscall.EIO, syscall.ENOSYS:
		return true
	}
	return false
}

// name decodes a raw source sockaddr. The address is kept exactly as the
// kernel spelled it — 4-in-6 mapped on a dual-stack socket — matching what
// net.UDPConn.ReadFromUDPAddrPort reports, so address comparisons (peer
// pinning, feedback authorization) behave identically on the batched and
// portable paths.
func (c *mmsgConn) name(raw *[sizeofSockaddrAny]byte) netip.AddrPort {
	switch *(*uint16)(unsafe.Pointer(&raw[0])) {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(raw))
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), sa.Port<<8|sa.Port>>8)
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(raw))
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), sa.Port<<8|sa.Port>>8)
	}
	return netip.AddrPort{}
}

// putName encodes dst into raw in the socket's address family (ports are
// big-endian on the wire, hence the byte swap on these little-endian
// arches) and returns the name length. An IPv6 destination on a v4 socket is
// unrepresentable; an AF_UNSPEC name makes the kernel reject that datagram
// cleanly (EINVAL) so it is dropped and counted like any other send failure.
func (c *mmsgConn) putName(raw *[sizeofSockaddrAny]byte, dst netip.AddrPort) uint32 {
	port := dst.Port()
	if c.v4 {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(raw))
		a := dst.Addr().Unmap()
		if !a.Is4() {
			*sa = syscall.RawSockaddrInet4{Family: syscall.AF_UNSPEC}
		} else {
			*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Port: port<<8 | port>>8, Addr: a.As4()}
		}
		return syscall.SizeofSockaddrInet4
	}
	sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(raw))
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Port: port<<8 | port>>8, Addr: dst.Addr().As16()}
	return syscall.SizeofSockaddrInet6
}
