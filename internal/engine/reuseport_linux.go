//go:build linux && (amd64 || arm64) && !purego

package engine

import (
	"context"
	"fmt"
	"net"
	"syscall"
)

// reusePortAvailable gates Config.ReusePort: true on the Linux builds that
// carry netbatch's batched fast path (amd64 and arm64, without "purego").
const reusePortAvailable = true

// soReusePort is SO_REUSEPORT on Linux; the stdlib syscall package does not
// export it.
const soReusePort = 0xf

// listenReusePort binds one UDP socket with SO_REUSEPORT set, so several
// shard sockets can share the engine's address and the kernel hashes
// incoming flows across them.
func listenReusePort(addr string) (*net.UDPConn, error) {
	lc := net.ListenConfig{
		Control: func(network, address string, c syscall.RawConn) error {
			var serr error
			if err := c.Control(func(fd uintptr) {
				serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
			}); err != nil {
				return err
			}
			return serr
		},
	}
	pc, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		return nil, err
	}
	conn, ok := pc.(*net.UDPConn)
	if !ok {
		pc.Close()
		return nil, fmt.Errorf("engine: unexpected packet conn type %T", pc)
	}
	return conn, nil
}
