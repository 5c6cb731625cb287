package engine

import "rapidware/internal/netbatch"

// The shard loops move datagrams through internal/netbatch: one syscall per
// batch on the Linux fast path, one per datagram on the portable fallback.
// The aliases keep the engine's own names for the contract. A shard runs on
// whichever batchConn Engine.start hands it: Start's, over the bound sockets,
// or a test's simulated conn, with no socket behind it.

// ioMsg is one datagram slot in a batch.
type ioMsg = netbatch.Msg

// batchConn is the shard loops' socket.
type batchConn = netbatch.Conn

const (
	// batchIOAvailable reports whether this build batches syscalls.
	batchIOAvailable = netbatch.Available
	// gsoAvailable reports whether this build can attempt UDP GSO sends;
	// where it can, every shard does.
	gsoAvailable = netbatch.GSOAvailable
)
