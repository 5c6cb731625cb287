package endpoint

import (
	"errors"
	"io"
	"sync/atomic"

	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// UDPSource is a datagram input endpoint: it pulls pooled frames from a
// receive function (bench/layers feeds it from a queue) and writes each frame
// into the chain with a single Write call, so live filter splices always land
// on frame boundaries. The frame passed in must already have its session-ID
// prefix stripped.
type UDPSource struct {
	*filter.Base
	received atomic.Uint64
}

// NewUDPSource returns an input endpoint fed by recv. recv blocks until a
// frame is available and returns io.EOF to end the stream cleanly; the source
// releases each Buf after copying it into the chain.
func NewUDPSource(name string, recv func() (*packet.Buf, error)) *UDPSource {
	if name == "" {
		name = "udp-source"
	}
	us := &UDPSource{}
	us.Base = filter.New(name, func(_ io.Reader, w io.Writer) error {
		for {
			b, err := recv()
			if err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
			_, werr := w.Write(b.B)
			b.Release()
			if werr != nil {
				return werr
			}
			us.received.Add(1)
		}
	})
	return us
}

// Received returns the number of frames pumped into the chain.
func (us *UDPSource) Received() uint64 { return us.received.Load() }

// UDPSink is a datagram output endpoint: it reads framed packets off the
// chain without decoding them and hands each raw frame to a send function as
// a pooled Buf with headroom bytes reserved at the front (room for a
// session-ID prefix). send owns the Buf and must Release it.
type UDPSink struct {
	*filter.Base
	sent atomic.Uint64
}

// NewUDPSink returns an output endpoint delivering raw frames to send.
func NewUDPSink(name string, headroom int, send func(*packet.Buf) error) *UDPSink {
	if name == "" {
		name = "udp-sink"
	}
	if headroom < 0 {
		headroom = 0
	}
	us := &UDPSink{}
	us.Base = filter.New(name, func(r io.Reader, _ io.Writer) error {
		pr := packet.NewReader(r)
		for {
			b, err := pr.ReadFrameBuf(headroom)
			if err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
			if serr := send(b); serr != nil {
				return serr
			}
			us.sent.Add(1)
		}
	})
	return us
}

// Sent returns the number of frames handed to the send function.
func (us *UDPSink) Sent() uint64 { return us.sent.Load() }

// Interface compliance.
var (
	_ filter.Filter = (*UDPSource)(nil)
	_ filter.Filter = (*UDPSink)(nil)
)
