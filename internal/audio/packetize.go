package audio

import (
	"fmt"
	"time"
)

// Packetizer splits a PCM stream into the fixed-interval chunks that the
// paper's proxy multicasts (and the FEC encoder groups into blocks).
type Packetizer struct {
	chunk int
}

// NewPacketizer returns a packetizer producing one payload per interval of
// audio. The interval must cover at least one frame.
func NewPacketizer(f Format, interval time.Duration) (*Packetizer, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if interval <= 0 {
		return nil, fmt.Errorf("audio: non-positive packet interval %v", interval)
	}
	frames := int(float64(f.SampleRate) * interval.Seconds())
	if frames < 1 {
		return nil, fmt.Errorf("audio: interval %v shorter than one frame", interval)
	}
	return &Packetizer{chunk: frames * f.BytesPerFrame()}, nil
}

// PayloadSize returns the size in bytes of each full payload.
func (p *Packetizer) PayloadSize() int { return p.chunk }

// Split divides pcm into consecutive payloads. The final payload may be
// shorter than PayloadSize; payloads alias the input slice.
func (p *Packetizer) Split(pcm []byte) [][]byte {
	var out [][]byte
	for off := 0; off < len(pcm); off += p.chunk {
		end := off + p.chunk
		if end > len(pcm) {
			end = len(pcm)
		}
		out = append(out, pcm[off:end])
	}
	return out
}

// Reassembler collects a PCM stream's packet payloads at the receiver and
// reports how complete the stream arrived: each packet that never does is a
// gap of silence in playback (the audible "degradation" the paper describes
// for lost packets).
type Reassembler struct {
	payloads map[int][]byte
	maxIndex int
	haveAny  bool
}

// NewReassembler returns a reassembler for payloads produced by a packetizer
// with the same format and payload size.
func NewReassembler(f Format, payloadSize int) (*Reassembler, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if payloadSize <= 0 {
		return nil, fmt.Errorf("audio: non-positive payload size %d", payloadSize)
	}
	return &Reassembler{payloads: make(map[int][]byte)}, nil
}

// Add stores the payload for packet index idx (0-based position in the
// original stream). Later duplicates overwrite earlier ones.
func (r *Reassembler) Add(idx int, payload []byte) {
	if idx < 0 {
		return
	}
	r.payloads[idx] = append([]byte(nil), payload...)
	if !r.haveAny || idx > r.maxIndex {
		r.maxIndex = idx
		r.haveAny = true
	}
}

// MarkExpected notes that packets up to and including idx were transmitted,
// so trailing losses still produce silence in the output.
func (r *Reassembler) MarkExpected(idx int) {
	if idx < 0 {
		return
	}
	if !r.haveAny || idx > r.maxIndex {
		r.maxIndex = idx
		r.haveAny = true
	}
}

// Completeness returns the fraction of expected packets that were received,
// the receiver-side audio quality proxy used in the experiments.
func (r *Reassembler) Completeness() float64 {
	if !r.haveAny {
		return 1
	}
	return float64(len(r.payloads)) / float64(r.maxIndex+1)
}
