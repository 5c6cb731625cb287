//go:build !linux

package engine

import "net"

// grantedBuffers cannot read back a socket's buffer sizes on this platform
// (sockbuf_linux.go does): ok is always false.
func grantedBuffers(*net.UDPConn) (rcv, snd int, ok bool) { return 0, 0, false }
