//go:build !linux || purego || !(amd64 || arm64)

package engine

import (
	"errors"
	"net"
)

// reusePortAvailable gates Config.ReusePort: this build lacks the Linux
// SO_REUSEPORT path, so New rejects the option up front.
const reusePortAvailable = false

// listenReusePort is unreachable in this build (New fails first); it exists
// so the portable compilation stays closed.
func listenReusePort(string) (*net.UDPConn, error) {
	return nil, errors.New("engine: SO_REUSEPORT support requires linux/amd64 or linux/arm64 without the 'purego' tag")
}
