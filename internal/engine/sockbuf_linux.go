package engine

import (
	"net"
	"syscall"
)

// grantedBuffers reads back the receive and send buffer sizes the kernel
// granted conn. Linux reports double the size it was asked for (the other
// half is its bookkeeping), so the halves are returned. ok is false when the
// sizes cannot be read.
func grantedBuffers(conn *net.UDPConn) (rcv, snd int, ok bool) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return 0, 0, false
	}
	var rerr, serr error
	if err := rc.Control(func(fd uintptr) {
		rcv, rerr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
		snd, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF)
	}); err != nil || rerr != nil || serr != nil {
		return 0, 0, false
	}
	return rcv / 2, snd / 2, true
}
