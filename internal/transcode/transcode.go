// Package transcode provides the content-adaptation filters the paper lists
// among a proxy's duties: reducing the bandwidth of a stream before it is
// forwarded to a resource-limited mobile host. Audio transcoders operate on
// the paper's PCM packets (downsampling, stereo-to-mono mixdown, bit-depth
// reduction) and a general-purpose DEFLATE filter pair compresses arbitrary
// payloads such as web content.
package transcode

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"

	"rapidware/internal/audio"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// DownsamplePCM reduces the sample rate of interleaved PCM data by keeping
// one frame in every factor frames. It returns the downsampled data and the
// resulting format.
func DownsamplePCM(f audio.Format, pcm []byte, factor int) ([]byte, audio.Format, error) {
	if err := f.Validate(); err != nil {
		return nil, audio.Format{}, err
	}
	if factor <= 0 {
		return nil, audio.Format{}, fmt.Errorf("transcode: invalid downsample factor %d", factor)
	}
	if factor == 1 {
		return append([]byte(nil), pcm...), f, nil
	}
	frame := f.BytesPerFrame()
	out := make([]byte, 0, len(pcm)/factor+frame)
	for off := 0; off+frame <= len(pcm); off += frame * factor {
		out = append(out, pcm[off:off+frame]...)
	}
	nf := f
	nf.SampleRate = f.SampleRate / factor
	return out, nf, nil
}

// StereoToMono mixes interleaved multi-channel PCM down to a single channel
// by averaging the channels of each frame.
func StereoToMono(f audio.Format, pcm []byte) ([]byte, audio.Format, error) {
	if err := f.Validate(); err != nil {
		return nil, audio.Format{}, err
	}
	if f.Channels == 1 {
		return append([]byte(nil), pcm...), f, nil
	}
	if f.BitsPerSample != 8 {
		return nil, audio.Format{}, fmt.Errorf("transcode: stereo-to-mono supports 8-bit PCM, got %d-bit", f.BitsPerSample)
	}
	frame := f.BytesPerFrame()
	out := make([]byte, 0, len(pcm)/f.Channels+1)
	for off := 0; off+frame <= len(pcm); off += frame {
		sum := 0
		for c := 0; c < f.Channels; c++ {
			sum += int(pcm[off+c])
		}
		out = append(out, byte(sum/f.Channels))
	}
	nf := f
	nf.Channels = 1
	return out, nf, nil
}

// ReduceBitDepth converts 16-bit signed little-endian PCM to 8-bit unsigned.
func ReduceBitDepth(f audio.Format, pcm []byte) ([]byte, audio.Format, error) {
	if err := f.Validate(); err != nil {
		return nil, audio.Format{}, err
	}
	if f.BitsPerSample == 8 {
		return append([]byte(nil), pcm...), f, nil
	}
	out := make([]byte, 0, len(pcm)/2)
	for off := 0; off+1 < len(pcm); off += 2 {
		s := int16(uint16(pcm[off]) | uint16(pcm[off+1])<<8)
		out = append(out, byte(int(s)>>8+128))
	}
	nf := f
	nf.BitsPerSample = 8
	return out, nf, nil
}

// NewDownsampleFilter returns a packet filter that downsamples every audio
// payload by factor. It preserves packet boundaries so each output packet
// still carries the same time interval of audio as its input.
func NewDownsampleFilter(name string, f audio.Format, factor int) (filter.Filter, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if factor <= 0 {
		return nil, fmt.Errorf("transcode: invalid downsample factor %d", factor)
	}
	if name == "" {
		name = fmt.Sprintf("downsample-x%d", factor)
	}
	return filter.NewPacketFunc(name, func(p *packet.Packet) ([]*packet.Packet, error) {
		if p.Kind != packet.KindData {
			return []*packet.Packet{p}, nil
		}
		down, _, err := DownsamplePCM(f, p.Payload, factor)
		if err != nil {
			return nil, err
		}
		out := p.Clone()
		out.Payload = down
		return []*packet.Packet{out}, nil
	}, nil), nil
}

// NewMonoFilter returns a packet filter that mixes stereo payloads to mono.
func NewMonoFilter(name string, f audio.Format) (filter.Filter, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if name == "" {
		name = "stereo-to-mono"
	}
	return filter.NewPacketFunc(name, func(p *packet.Packet) ([]*packet.Packet, error) {
		if p.Kind != packet.KindData {
			return []*packet.Packet{p}, nil
		}
		mono, _, err := StereoToMono(f, p.Payload)
		if err != nil {
			return nil, err
		}
		out := p.Clone()
		out.Payload = mono
		return []*packet.Packet{out}, nil
	}, nil), nil
}

// NewThinningFilter returns a packet filter that forwards one data packet in
// every keepOneIn and drops the rest — the paper's media-thinning fidelity
// reduction for receivers whose link (or battery) cannot carry the full
// stream. Non-data packets (parity, control, feedback) always pass so repair
// and signalling survive thinning. keepOneIn == 1 forwards everything.
func NewThinningFilter(name string, keepOneIn int) (filter.Filter, error) {
	if keepOneIn <= 0 {
		return nil, fmt.Errorf("transcode: invalid thinning factor %d", keepOneIn)
	}
	if name == "" {
		name = fmt.Sprintf("thin-1in%d", keepOneIn)
	}
	seen := 0
	return filter.NewPacketFunc(name, func(p *packet.Packet) ([]*packet.Packet, error) {
		if p.Kind != packet.KindData || keepOneIn == 1 {
			return []*packet.Packet{p}, nil
		}
		seen++
		if (seen-1)%keepOneIn == 0 {
			return []*packet.Packet{p}, nil
		}
		return nil, nil
	}, nil), nil
}

// NewCompressFilter returns a packet filter that DEFLATE-compresses payloads.
// level follows compress/flate (1 fastest .. 9 best, -1 default).
func NewCompressFilter(name string, level int) (filter.Filter, error) {
	if name == "" {
		name = "compress"
	}
	// Validate the level eagerly so misconfiguration fails at build time, not
	// on the first packet.
	if _, err := flate.NewWriter(io.Discard, level); err != nil {
		return nil, fmt.Errorf("transcode: %w", err)
	}
	return filter.NewPacketFunc(name, func(p *packet.Packet) ([]*packet.Packet, error) {
		if p.Kind != packet.KindData || len(p.Payload) == 0 {
			return []*packet.Packet{p}, nil
		}
		var buf bytes.Buffer
		w, err := flate.NewWriter(&buf, level)
		if err != nil {
			return nil, err
		}
		if _, err := w.Write(p.Payload); err != nil {
			return nil, err
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		out := p.Clone()
		out.Payload = buf.Bytes()
		return []*packet.Packet{out}, nil
	}, nil), nil
}

// NewDecompressFilter returns the inverse of NewCompressFilter. A payload
// that is not a DEFLATE stream is a bad frame (filter.ErrBadFrame): dropped
// and counted, not a stage failure.
func NewDecompressFilter(name string) filter.Filter {
	if name == "" {
		name = "decompress"
	}
	return filter.NewPacketFunc(name, func(p *packet.Packet) ([]*packet.Packet, error) {
		if p.Kind != packet.KindData || len(p.Payload) == 0 {
			return []*packet.Packet{p}, nil
		}
		r := flate.NewReader(bytes.NewReader(p.Payload))
		defer r.Close()
		raw, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("transcode: decompress: %w: %w", filter.ErrBadFrame, err)
		}
		out := p.Clone()
		out.Payload = raw
		return []*packet.Packet{out}, nil
	}, nil)
}
