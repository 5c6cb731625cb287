//go:build !linux

package engine

import "net"

// grantedBuffers cannot read back a socket's buffer sizes on this platform
// (sockbuf_linux.go does): it returns -1, -1.
func grantedBuffers(*net.UDPConn) (rcv, snd int) { return -1, -1 }
