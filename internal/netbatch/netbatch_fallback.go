//go:build !linux || purego || !(amd64 || arm64)

package netbatch

import "net"

// Portable build: no batched syscalls, no GSO. Callers still speak the Conn
// interface; they just move one datagram per syscall.
const (
	Available    = false
	GSOAvailable = false
)

// New wraps conn in the portable one-datagram-per-syscall Conn.
func New(conn *net.UDPConn, opts Options) Conn {
	return newSimpleConn(conn, opts)
}
