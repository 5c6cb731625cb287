// Package gen is the benchmark's input side: the workload catalogue and the
// seeded generators that turn a workload and a seed into datagrams. The
// proxy under test never sees the seed — only the flags in Workload.Flags
// and the datagrams built here — and both the end-to-end generator (package
// main) and the layer replay (package layers) draw from this one source, so a
// layer is timed on exactly the frames the proxy relays.
package gen

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"

	"rapidware/internal/fec"
	"rapidware/internal/packet"
)

// Every data payload starts with a 16-byte tag the oracle reads back:
//
//	[0:8)   send stamp, ns on the generator's clock (little endian)
//	[8:12)  frame index within the session
//	[12:16) CRC-32 of the body that follows
//
// The tag travels inside the payload because chain stages may rewrite every
// header field (the FEC encoders re-stamp seq, group and index) but none
// touches payload bytes.
const (
	StampOff = 0
	IndexOff = 8
	CRCOff   = 12
	TagSize  = 16
	// PayloadOff is where the payload starts inside an engine datagram.
	PayloadOff = packet.SessionIDSize + packet.HeaderSize
)

// Kind selects the generator loop that drives a workload.
type Kind int

const (
	// Echo: closed loop, every frame comes back to the socket that sent it.
	Echo Kind = iota
	// FEC: closed loop over pre-encoded, channel-erased (n,k) groups.
	FEC
	// Fanout: one source socket, output verified at the sink sockets.
	Fanout
	// Churn: open-loop schedule of session opens and touches.
	Churn
)

// PathTerm is one layer's share of the proxy's per-returned-frame cost on a
// workload: the timed layer metric and how many of its units one returned
// frame pays for. The residual metric subtracts these from measured CPU.
type PathTerm struct {
	Metric string
	Per    float64
}

// Workload is one catalogue entry. Zero-valued fields are unused by the
// workload's Kind.
type Workload struct {
	Name string
	Why  string
	Kind Kind
	// Chain is the proxy's -chain spec, Flags its further flags, Procs its
	// GOMAXPROCS.
	Chain string
	Flags []string
	Procs int
	// Sessions are spread evenly over Sockets load sockets; every data frame
	// carries Payload bytes; Window frames (groups, for FEC) stay in flight
	// across all sockets.
	Sessions, Sockets, Payload, Window int
	// Tail is the number of uncounted frames sent per session after the run
	// to push out frames a block encoder in the proxy still holds.
	Tail int
	// ComposeHz and Plans drive the control-plane schedule of recompose-live.
	ComposeHz int
	Plans     []string

	// Code and Loss describe the FEC uplink: groups are pre-encoded with
	// Code and shares erased by a Gilbert-Elliott chain with Loss.
	Code fec.Params
	Loss Channel
	// ProxyCode is the code the proxy's chain re-encodes with.
	ProxyCode fec.Params

	// Sinks is the fan-out width; odd sinks report LossPct percent loss.
	Sinks   int
	LossPct int

	// Resident sessions are opened in set-up (half hot, half cold); OpenHz
	// never-seen sessions are opened per second with OpenFrames frames each.
	Resident, OpenHz, OpenFrames int

	// Path lists the timed layers one returned frame crosses in the proxy.
	Path []PathTerm
}

// Channel parameterises the Gilbert-Elliott erasure chain.
type Channel struct {
	// Mean is the stationary loss share; Burst the mean erasure run length.
	Mean, Burst float64
}

// relayPath is the bare per-datagram path every echoed frame pays.
var relayPath = []PathTerm{
	{"netbatch.read_ns_per_pkt", 1},
	{"packet.parse_ns_per_pkt", 1},
	{"packet.pool_ns_per_pkt", 2},
	{"endpoint.pipe_ns_per_frame", 1},
	{"netbatch.write_ns_per_pkt", 1},
}

func with(base []PathTerm, more ...PathTerm) []PathTerm {
	return append(append([]PathTerm(nil), base...), more...)
}

// Workloads returns the catalogue. Names are final: later issues cite them.
func Workloads() []Workload {
	return []Workload{
		{
			Name: "relay-small", Kind: Echo,
			Why:      "bare forwarding at the smallest packet: per-packet netbatch/packet/engine/endpoint cost is everything, filter and fec do nothing",
			Procs:    2,
			Sessions: 64, Sockets: 2, Payload: 64, Window: 256,
			Path: relayPath,
		},
		{
			Name: "chain-deep", Kind: Echo,
			Why:      "four interior stages at a light window, so RTT shows hop latency: minus relay-small it is the per-stage tax of the stream/filter model",
			Chain:    "counting,checksum,null,null",
			Procs:    2,
			Sessions: 64, Sockets: 2, Payload: 320, Window: 32,
			Path: with(relayPath, PathTerm{"filter.stage_ns_per_frame", 4}),
		},
		{
			Name: "fec-transcode", Kind: FEC,
			Why:      "decode (12,8) groups off a bursty 5% uplink and re-encode 6/4: fec/gf256 dominate on repair and encode, per-packet engine cost is diluted",
			Chain:    "fec-decode,fec-encode=6/4",
			Procs:    2,
			Sessions: 8, Sockets: 2, Payload: 1200, Window: 16,
			Code: fec.Params{N: 12, K: 8}, ProxyCode: fec.Params{N: 6, K: 4},
			Loss: Channel{Mean: 0.05, Burst: 2},
			// Per returned data frame: 1.5 shares in (12 per 8, 5% erased),
			// 1.5 frames out (6 per 4), an eighth of a decode, a quarter of
			// an encode.
			Path: []PathTerm{
				{"netbatch.read_ns_per_pkt", 1.425},
				{"packet.parse_ns_per_pkt", 1.425},
				{"packet.pool_ns_per_pkt", 2.925},
				{"endpoint.pipe_ns_per_frame", 1},
				{"fec.decode_ns_per_group", 1.0 / 8},
				{"fec.encode_ns_per_group", 1.0 / 4},
				{"netbatch.write_ns_per_pkt", 1.5},
			},
		},
		{
			Name: "fanout-mixed", Kind: Fanout,
			Why:      "8 receivers in two cohorts (clean half on the bypass lane, lossy half behind one adaptive encoder): the cohort/branch/adapt/writer-expansion plane",
			Procs:    2,
			Sessions: 2, Sockets: 1, Payload: 320, Window: 64, Tail: 4,
			Sinks: 8, LossPct: 10, ProxyCode: fec.Params{N: 8, K: 4},
			// Per frame returned at a sink: an eighth of the trunk's inbound
			// cost and one encode per 4 trunk frames. The writes are left to
			// the residual: the proxy sends GSO super-datagrams, which the
			// replay's plain WriteBatch on a loopback pair does not model.
			Path: []PathTerm{
				{"netbatch.read_ns_per_pkt", 1.0 / 8},
				{"packet.parse_ns_per_pkt", 1.0 / 8},
				{"packet.pool_ns_per_pkt", 2.0 / 8},
				{"endpoint.pipe_ns_per_frame", 2.0 / 8},
				{"fec.encode_ns_per_group", 1.0 / 32},
			},
		},
		{
			Name: "recompose-live", Kind: Echo,
			Why:   "chains re-spliced live at 100 ops/s under traffic (insert, remove, move): the paper's headline and the write use of compose/filter/stream",
			Chain: "counting",
			Procs: 2,
			// 128 in flight, not the 32 first planned: at 32 this data plane
			// is two-thirds idle and its throughput follows whichever
			// scheduler regime a run lands in (107-152 kpps, same code);
			// at 128 it saturates and repeats (191-203 kpps).
			Sessions: 16, Sockets: 2, Payload: 320, Window: 128,
			ComposeHz: 100,
			Plans:     []string{"counting", "counting,checksum,null", "null,counting"},
			Path:      with(relayPath, PathTerm{"filter.stage_ns_per_frame", 2}),
		},
		{
			Name: "session-churn", Kind: Churn,
			Why:   "table insert, chain build, park and unpark instead of lookup: 1024 residents (half always parked when touched) plus 500 never-seen sessions a second",
			Flags: []string{"-idle-ttl", "2s"},
			// One P: this proxy is four-fifths idle, and an idle two-P Go
			// scheduler settles, per run, into one of two regimes (threads
			// spinning for work or sleeping between frames) that cost 82 or
			// 118 us of CPU a frame on the same seed. Nothing in the code
			// under test chooses between them; one P has one regime.
			Procs:   1,
			Sockets: 2, Payload: 64,
			Resident: 1024, OpenHz: 500, OpenFrames: 2,
			Path: relayPath,
		},
	}
}

// Lookup finds a workload by name.
func Lookup(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// FirstSession is the lowest session ID a run uses; sessions are numbered
// consecutively from it so a datagram's session indexes a slice.
const FirstSession = 1000

// sessionRand returns session's own deterministic stream for seed.
func sessionRand(seed int64, session uint32) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(session)))
}

// Datagram builds the template datagram for one session: session ID, a data
// header, and a payload of size bytes whose body is seeded noise with its CRC
// already in the tag. The sender stamps time and index per frame; the body —
// and therefore the CRC — is fixed for the session.
func Datagram(seed int64, session uint32, size int) ([]byte, error) {
	if size < TagSize+1 {
		return nil, fmt.Errorf("gen: payload %d too small for the %d-byte tag", size, TagSize)
	}
	payload := make([]byte, size)
	sessionRand(seed, session).Read(payload[TagSize:])
	binary.LittleEndian.PutUint32(payload[CRCOff:], crc32.ChecksumIEEE(payload[TagSize:]))
	return packet.AppendDatagram(make([]byte, 0, PayloadOff+size), session, &packet.Packet{
		StreamID: session, Kind: packet.KindData, Payload: payload,
	})
}

// Stamp writes the per-frame fields into a datagram built from a template:
// the header sequence number and the payload's send stamp and frame index.
func Stamp(dgram []byte, index uint32, nowNs int64) {
	binary.BigEndian.PutUint64(dgram[packet.SessionIDSize+4:], uint64(index))
	binary.LittleEndian.PutUint64(dgram[PayloadOff+StampOff:], uint64(nowNs))
	binary.LittleEndian.PutUint32(dgram[PayloadOff+IndexOff:], index)
}

// Tag is a returned payload's decoded tag.
type Tag struct {
	StampNs int64
	Index   uint32
	// Intact reports that the body still matches the CRC it was sent with.
	Intact bool
}

// ReadTag decodes and checks a returned payload.
func ReadTag(payload []byte) (Tag, bool) {
	if len(payload) <= TagSize {
		return Tag{}, false
	}
	return Tag{
		StampNs: int64(binary.LittleEndian.Uint64(payload[StampOff:])),
		Index:   binary.LittleEndian.Uint32(payload[IndexOff:]),
		Intact:  crc32.ChecksumIEEE(payload[TagSize:]) == binary.LittleEndian.Uint32(payload[CRCOff:]),
	}, true
}

// Eraser is a two-state Gilbert-Elliott erasure chain: every share sent in
// the bad state is erased, none in the good state.
type Eraser struct {
	rng           *rand.Rand
	toBad, toGood float64
	bad           bool
}

// NewEraser returns session's erasure chain for seed.
func NewEraser(seed int64, session uint32, ch Channel) *Eraser {
	toGood := 1 / ch.Burst
	return &Eraser{
		rng:    sessionRand(seed^0x6745_2301, session),
		toGood: toGood,
		toBad:  ch.Mean * toGood / (1 - ch.Mean),
	}
}

// Erased advances the chain one share and reports whether it is erased.
func (e *Eraser) Erased() bool {
	if e.bad {
		e.bad = e.rng.Float64() >= e.toGood
	} else {
		e.bad = e.rng.Float64() < e.toBad
	}
	return e.bad
}

// Fate is what the erasure chain did to one group and what the proxy's
// decoder must therefore deliver.
type Fate struct {
	// Sent[i] is true when share i survived and goes on the wire.
	Sent []bool
	// Order lists the data shares that must come back, in the order the
	// decoder hands them on: the ones that arrived, as they arrive, and then
	// — if at least k shares arrived, which only the group's parity can
	// complete — the reconstructed ones by index.
	Order []int
	// Repairs is the number of data shares the decoder must reconstruct;
	// Unrecoverable the number it cannot (fewer than k shares arrived).
	Repairs, Unrecoverable int
}

// NextFate erases the next group of an (n,k) stream.
func (e *Eraser) NextFate(code fec.Params) Fate {
	f := Fate{Sent: make([]bool, code.N)}
	var lost []int
	arrived := 0
	for i := range f.Sent {
		f.Sent[i] = !e.Erased()
		switch {
		case f.Sent[i]:
			arrived++
			if i < code.K {
				f.Order = append(f.Order, i)
			}
		case i < code.K:
			lost = append(lost, i)
		}
	}
	if arrived >= code.K {
		f.Order = append(f.Order, lost...)
		f.Repairs = len(lost)
	} else {
		f.Unrecoverable = len(lost)
	}
	return f
}

// Clean is the fate of a group the channel leaves alone.
func Clean(code fec.Params) Fate {
	f := Fate{Sent: make([]bool, code.N)}
	for i := range f.Sent {
		f.Sent[i] = true
	}
	for i := 0; i < code.K; i++ {
		f.Order = append(f.Order, i)
	}
	return f
}

// Group is one pre-encoded FEC group: n datagrams (k data, n-k parity) for
// one session. The sender re-stamps group number and sequence numbers in the
// headers; payloads — which are all the parity covers — never change, so a
// small pool of groups can be cycled for a run of any length.
type Group struct {
	Shares [][]byte
}

// shareHeader is the 2-byte length prefix internal/fec puts in front of each
// payload to make equal-size shares.
const shareHeader = 2

// DataShare returns the FEC share form of a data payload: length prefix plus
// payload, zero-padded to size bytes.
func DataShare(payload []byte, size int) []byte {
	s := make([]byte, size)
	binary.BigEndian.PutUint16(s, uint16(len(payload)))
	copy(s[shareHeader:], payload)
	return s
}

// GroupPool pre-encodes slots groups for session. Data payload j of slot g
// carries frame index g*k+j in its tag, so a returned payload names its slot.
func GroupPool(seed int64, session uint32, size, slots int, code fec.Params) ([]Group, error) {
	coder, err := fec.CoderFor(code)
	if err != nil {
		return nil, err
	}
	rng := sessionRand(seed, session)
	pool := make([]Group, slots)
	for g := range pool {
		sources := make([][]byte, code.K)
		shares := make([][]byte, code.N)
		for j := 0; j < code.K; j++ {
			payload := make([]byte, size)
			rng.Read(payload[TagSize:])
			binary.LittleEndian.PutUint32(payload[IndexOff:], uint32(g*code.K+j))
			binary.LittleEndian.PutUint32(payload[CRCOff:], crc32.ChecksumIEEE(payload[TagSize:]))
			sources[j] = DataShare(payload, size+shareHeader)
			shares[j], err = packet.AppendDatagram(nil, session, &packet.Packet{
				StreamID: session, Kind: packet.KindData,
				Index: uint8(j), K: uint8(code.K), N: uint8(code.N), Payload: payload,
			})
			if err != nil {
				return nil, err
			}
		}
		parity, err := coder.EncodeParity(sources)
		if err != nil {
			return nil, err
		}
		for j, par := range parity {
			shares[code.K+j], err = packet.AppendDatagram(nil, session, &packet.Packet{
				StreamID: session, Kind: packet.KindParity,
				Index: uint8(code.K + j), K: uint8(code.K), N: uint8(code.N), Payload: par,
			})
			if err != nil {
				return nil, err
			}
		}
		pool[g] = Group{Shares: shares}
	}
	return pool, nil
}

// StampShare writes a share's per-send header fields: the session-wide
// sequence number and the group number.
func StampShare(dgram []byte, seq uint64, group uint32) {
	binary.BigEndian.PutUint64(dgram[packet.SessionIDSize+4:], seq)
	binary.BigEndian.PutUint32(dgram[packet.SessionIDSize+16:], group)
}
