// Package transcode provides the content-adaptation filters the paper lists
// among a proxy's duties: reducing the bandwidth of a stream before it is
// forwarded to a resource-limited mobile host. Audio transcoders operate on
// the paper's PCM packets (downsampling, stereo-to-mono mixdown, thinning)
// and a general-purpose DEFLATE filter pair compresses arbitrary
// payloads such as web content.
package transcode

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"

	"rapidware/internal/audio"
	"rapidware/internal/filter"
	"rapidware/internal/packet"
)

// appendDownsampled appends one frame in every factor frames of pcm to dst;
// factor 1 appends all of pcm. f and factor must already be valid.
func appendDownsampled(dst []byte, f audio.Format, pcm []byte, factor int) []byte {
	if factor == 1 {
		return append(dst, pcm...)
	}
	frame := f.BytesPerFrame()
	for off := 0; off+frame <= len(pcm); off += frame * factor {
		dst = append(dst, pcm[off:off+frame]...)
	}
	return dst
}

// monoMixable reports whether appendMono can mix f down.
func monoMixable(f audio.Format) error {
	if f.Channels != 1 && f.BitsPerSample != 8 {
		return fmt.Errorf("transcode: stereo-to-mono supports 8-bit PCM, got %d-bit", f.BitsPerSample)
	}
	return nil
}

// appendMono appends pcm mixed down to one channel to dst: each frame's
// channels averaged into one sample, or pcm itself when it already is mono.
// f must pass monoMixable.
func appendMono(dst []byte, f audio.Format, pcm []byte) []byte {
	if f.Channels == 1 {
		return append(dst, pcm...)
	}
	frame := f.BytesPerFrame()
	for off := 0; off+frame <= len(pcm); off += frame {
		sum := 0
		for c := 0; c < f.Channels; c++ {
			sum += int(pcm[off+c])
		}
		dst = append(dst, byte(sum/f.Channels))
	}
	return dst
}

// newPayloadFilter returns a frame filter that hands rewrite each non-empty
// data frame with its payload and emits the frame rewrite builds in its place
// (with packet.Reframe); every other frame passes as it is. A buffer that is
// not one frame, or one rewrite fails on, is a bad frame (filter.ErrBadFrame):
// dropped and counted, not a stage failure.
func newPayloadFilter(name string, rewrite func(frame, payload []byte) (*packet.Buf, error)) filter.Filter {
	return filter.NewFrame(name, func(b *packet.Buf, emit func(*packet.Buf)) error {
		if err := filter.CheckFrame(b); err != nil {
			return err
		}
		if packet.FrameKind(b.B) != packet.KindData || len(b.B) == packet.HeaderSize {
			emit(b)
			return nil
		}
		out, err := rewrite(b.B, b.B[packet.HeaderSize:])
		b.Release()
		if err != nil {
			return fmt.Errorf("transcode: %s: %w: %w", name, filter.ErrBadFrame, err)
		}
		emit(out)
		return nil
	}, nil)
}

// NewDownsampleFilter returns a frame filter that downsamples every audio
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
	return newPayloadFilter(name, func(frame, pcm []byte) (*packet.Buf, error) {
		return packet.Reframe(frame, len(pcm), func(dst []byte) []byte {
			return appendDownsampled(dst, f, pcm, factor)
		})
	}), nil
}

// NewMonoFilter returns a frame filter that mixes stereo payloads to mono.
func NewMonoFilter(name string, f audio.Format) (filter.Filter, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if err := monoMixable(f); err != nil {
		return nil, err
	}
	if name == "" {
		name = "stereo-to-mono"
	}
	return newPayloadFilter(name, func(frame, pcm []byte) (*packet.Buf, error) {
		return packet.Reframe(frame, len(pcm), func(dst []byte) []byte {
			return appendMono(dst, f, pcm)
		})
	}), nil
}

// NewThinningFilter returns a frame filter that forwards one data packet in
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
	return filter.NewFrame(name, func(b *packet.Buf, emit func(*packet.Buf)) error {
		if err := filter.CheckFrame(b); err != nil {
			return err
		}
		if packet.FrameKind(b.B) == packet.KindData && keepOneIn > 1 {
			seen++
			if (seen-1)%keepOneIn != 0 {
				b.Release()
				return nil
			}
		}
		emit(b)
		return nil
	}, nil), nil
}

// The DEFLATE filters borrow their codec state from process-wide pools: a
// flate.Writer costs hundreds of kilobytes to build, Reset makes a used one
// emit exactly what a fresh one would, and a stage that kept its own would
// pin that state in every session that composes it. Each codec writes into
// its own scratch, which the output frame then copies.
var (
	deflaters [flate.BestCompression - flate.HuffmanOnly + 1]sync.Pool // by level
	inflaters sync.Pool
)

// deflater is one pooled compressor and its scratch.
type deflater struct {
	w   *flate.Writer
	out bytes.Buffer
}

// inflater is one pooled decompressor, its source and its scratch.
type inflater struct {
	r   io.ReadCloser // a flate.Resetter
	src bytes.Reader
	lim io.LimitedReader
	out bytes.Buffer
}

// reframe builds the frame carrying frame's header and the payload in out,
// then lets go of out's storage if a rare huge payload grew it past 64 KiB,
// rather than pooling that.
func reframe(frame []byte, out *bytes.Buffer) (*packet.Buf, error) {
	b, err := packet.Reframe(frame, out.Len(), func(dst []byte) []byte { return append(dst, out.Bytes()...) })
	if out.Cap() > 64<<10 {
		*out = bytes.Buffer{}
	}
	return b, err
}

// NewCompressFilter returns a frame filter that DEFLATE-compresses payloads.
// level follows compress/flate (1 fastest .. 9 best, -1 default).
func NewCompressFilter(name string, level int) (filter.Filter, error) {
	if name == "" {
		name = "compress"
	}
	// Validate the level eagerly so misconfiguration fails at build time, not
	// on the first packet.
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		return nil, fmt.Errorf("transcode: flate: invalid compression level %d: want value in range [%d, %d]", level, flate.HuffmanOnly, flate.BestCompression)
	}
	pool := &deflaters[level-flate.HuffmanOnly]
	return newPayloadFilter(name, func(frame, raw []byte) (*packet.Buf, error) {
		z, _ := pool.Get().(*deflater)
		if z == nil {
			z = &deflater{}
			z.w, _ = flate.NewWriter(&z.out, level) // the level is valid
		} else {
			z.out.Reset()
			z.w.Reset(&z.out)
		}
		defer pool.Put(z)
		if _, err := z.w.Write(raw); err != nil {
			return nil, err
		}
		if err := z.w.Close(); err != nil {
			return nil, err
		}
		return reframe(frame, &z.out)
	}), nil
}

// NewDecompressFilter returns the inverse of NewCompressFilter. A payload
// that is not a DEFLATE stream, or inflates past packet.MaxPayload, is a bad
// frame.
func NewDecompressFilter(name string) filter.Filter {
	if name == "" {
		name = "decompress"
	}
	return newPayloadFilter(name, func(frame, packed []byte) (*packet.Buf, error) {
		z, _ := inflaters.Get().(*inflater)
		if z == nil {
			z = &inflater{}
			z.r = flate.NewReader(&z.src)
		}
		defer inflaters.Put(z)
		z.src.Reset(packed)
		z.r.(flate.Resetter).Reset(&z.src, nil)
		z.out.Reset()
		// One byte past the limit tells an oversized payload from one that
		// just fits: Reframe refuses it.
		z.lim = io.LimitedReader{R: z.r, N: packet.MaxPayload + 1}
		if _, err := z.out.ReadFrom(&z.lim); err != nil {
			return nil, err
		}
		return reframe(frame, &z.out)
	})
}
