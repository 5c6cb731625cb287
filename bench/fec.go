package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"rapidware/bench/gen"
	"rapidware/internal/fec"
	"rapidware/internal/packet"
)

// owed is one data frame the proxy's decoder must hand back: its tag index
// (the pool slot's frame number) and when its group went on the wire. The
// send stamp lives here, not in the payload: parity covers the payload, so
// the payload cannot change per send.
type owed struct {
	index   uint32
	sentNs  int64
	counted bool // false for priming and tail frames
}

// fecSession is one session of fec-transcode: its pre-encoded groups, its
// erasure chain, and the FIFO of frames it is owed, in the order the decoder
// must deliver them.
type fecSession struct {
	pool   []gen.Group
	eraser *gen.Eraser
	group  uint32 // next group number on the wire
	seq    uint64 // next share sequence number
	owed   []owed
	sample paritySample
}

// fecDriver is the closed loop of fec-transcode: whole (n,k) groups are sent
// minus the shares the seeded channel erased, and the window is counted in
// the data frames the decoder owes back.
type fecDriver struct {
	l           *lane
	w           gen.Workload
	first       uint32
	stride      uint32
	sess        []fecSession
	window      int // owed data frames allowed in flight
	outstanding int
	rr          int
	sampleCoder *fec.Coder

	// The seeded channel's own bookkeeping: what the decoder had to repair,
	// and what no decoder could.
	repairs, unrecoverable uint64
	// Sampled parity check of the proxy's re-encoded groups.
	verified, mismatched uint64
}

// sendGroup puts the session's next group on the wire under the given fate.
func (f *fecDriver) sendGroup(s *fecSession, fate gen.Fate, now int64, counted bool) error {
	slot := int(s.group) % len(s.pool)
	k := 0
	for i, dgram := range s.pool[slot].Shares {
		if !fate.Sent[i] {
			s.seq++ // the erased share still consumed its sequence number
			continue
		}
		gen.StampShare(dgram, s.seq, s.group)
		s.seq++
		f.l.wmsgs[k].Buf, f.l.wmsgs[k].Addr = dgram, f.l.dst
		k++
	}
	for _, j := range fate.Order {
		s.owed = append(s.owed, owed{index: uint32(slot*f.w.Code.K + j), sentNs: now, counted: counted})
		f.outstanding++
		if counted {
			f.l.t.attempted++
		}
	}
	s.group++
	if k == 0 {
		return nil
	}
	return f.l.write(k)
}

func (f *fecDriver) fill(now int64) (time.Duration, error) {
	for f.outstanding+f.w.Code.K <= f.window {
		s := &f.sess[f.rr]
		f.rr = (f.rr + 1) % len(f.sess)
		fate := s.eraser.NextFate(f.w.Code)
		f.repairs += uint64(fate.Repairs)
		f.unrecoverable += uint64(fate.Unrecoverable)
		if err := f.sendGroup(s, fate, now, true); err != nil {
			return 0, err
		}
	}
	return stallLimit, nil
}

func (f *fecDriver) deliver(dgram []byte, now int64) {
	session, kind, payload, ok := frameOf(dgram)
	i, mine := owns(session, f.first, f.stride, len(f.sess))
	if !ok || !mine {
		f.l.t.stray++
		return
	}
	s := &f.sess[i]
	f.sampleShare(s, dgram, kind, payload)
	if kind != packet.KindData {
		return // parity the proxy added; only sampled above
	}
	tag, tagged := gen.ReadTag(payload)
	if !tagged {
		f.l.t.stray++
		return
	}
	// The frame must be the oldest one owed; anything owed before it that it
	// overtook is lost.
	at := -1
	for i := range s.owed {
		if s.owed[i].index == tag.Index {
			at = i
			break
		}
	}
	if at < 0 {
		f.l.t.dup++
		return
	}
	for _, o := range s.owed[:at] {
		if o.counted {
			f.l.t.lost++
		}
	}
	o := s.owed[at]
	s.owed = s.owed[at+1:]
	f.outstanding -= at + 1
	switch {
	case !o.counted:
	case !tag.Intact:
		f.l.t.corrupt++
	default:
		f.l.t.good(f.l.tl, now, o.sentNs, len(payload))
	}
}

func (f *fecDriver) idle(int64) {
	for i := range f.sess {
		s := &f.sess[i]
		for _, o := range s.owed {
			if o.counted {
				f.l.t.lost++
			}
		}
		f.outstanding -= len(s.owed)
		s.owed = s.owed[:0]
	}
}

// prime opens every session with one clean, uncounted group: its data frames
// cross the decoder and fill whole groups of the proxy's encoder, so all of
// them come straight back.
func (f *fecDriver) prime() error {
	for i := range f.sess {
		if err := f.sendGroup(&f.sess[i], gen.Clean(f.w.Code), f.l.tl.now(), false); err != nil {
			return err
		}
	}
	for f.outstanding > 0 {
		if n, err := f.l.pump(f, primeTimeout); err != nil {
			return err
		} else if n == 0 {
			return fmt.Errorf("priming: proxy returned nothing for %v", primeTimeout)
		}
	}
	return nil
}

// drain sends every session one more clean, uncounted group — it pushes out
// whatever counted frames the proxy's block encoder still holds — and then
// collects until nothing counted is owed.
func (f *fecDriver) drain() error {
	for i := range f.sess {
		if err := f.sendGroup(&f.sess[i], gen.Clean(f.w.Code), f.l.tl.now(), false); err != nil {
			return err
		}
	}
	countedOwed := func() bool {
		for i := range f.sess {
			for _, o := range f.sess[i].owed {
				if o.counted {
					return true
				}
			}
		}
		return false
	}
	for countedOwed() {
		if n, err := f.l.pump(f, stallLimit); err != nil || n == 0 {
			return err // idle() has written the rest off
		}
	}
	return nil
}

// paritySample collects one of the proxy's re-encoded groups for the sampled
// parity check.
type paritySample struct {
	group  uint32
	active bool
	have   int
	shares [][]byte
}

// sampleEvery is the share of the proxy's output groups whose parity is
// checked by decoding: 1 in 64.
const sampleEvery = 64

// sampleShare feeds one returned frame to the session's parity sample. When
// a sampled group is complete, its first n-k data shares are dropped and
// reconstructed from the rest with fec.Coder; the reconstruction must equal
// the data frames that actually arrived, or the proxy's parity is wrong.
func (f *fecDriver) sampleShare(s *fecSession, dgram []byte, kind packet.Kind, payload []byte) {
	hdr := dgram[packet.SessionIDSize:]
	group, index := binary.BigEndian.Uint32(hdr[16:]), int(hdr[20])
	code := f.w.ProxyCode
	if group%sampleEvery != 0 || int(hdr[21]) != code.K || int(hdr[22]) != code.N || index >= code.N {
		return
	}
	sm := &s.sample
	if !sm.active || sm.group != group {
		*sm = paritySample{group: group, active: true, shares: make([][]byte, code.N)}
	}
	if sm.shares[index] != nil {
		return
	}
	shareSize := f.w.Payload + 2 // every payload here has the workload's size
	if kind == packet.KindData {
		sm.shares[index] = gen.DataShare(payload, shareSize)
	} else {
		sm.shares[index] = bytes.Clone(payload)
	}
	if sm.have++; sm.have < code.N {
		return
	}
	sm.active = false
	have := make(map[int][]byte, code.K)
	for i := code.N - code.K; i < code.N; i++ {
		have[i] = sm.shares[i]
	}
	out, err := f.sampleCoder.Decode(have)
	f.verified++
	if err != nil {
		f.mismatched++
		return
	}
	for i := 0; i < code.N-code.K; i++ {
		if !bytes.Equal(out[i], sm.shares[i]) {
			f.mismatched++
			return
		}
	}
}

func newFECDrivers(w gen.Workload, seed int64, in *inputs, lanes []*lane) ([]driver, error) {
	coder, err := fec.CoderFor(w.ProxyCode)
	if err != nil {
		return nil, err
	}
	drivers := make([]driver, len(lanes))
	for j, l := range lanes {
		f := &fecDriver{
			l: l, w: w, first: gen.FirstSession + uint32(j), stride: uint32(len(lanes)),
			window: w.Window * w.Code.K / len(lanes), sampleCoder: coder,
		}
		for i := j; i < w.Sessions; i += len(lanes) {
			id := gen.FirstSession + uint32(i)
			f.sess = append(f.sess, fecSession{pool: in.pools[i], eraser: gen.NewEraser(seed, id, w.Loss)})
		}
		drivers[j] = f
	}
	return drivers, nil
}
