package metrics

import "sync/atomic"

// SessionCounters is the per-session counter block maintained by the proxy
// engine's relay hot path. All fields are atomics so the data path never
// takes a lock to account for a packet.
type SessionCounters struct {
	// Packets and Bytes count inbound datagrams accepted onto the session's
	// chain.
	Packets atomic.Uint64
	Bytes   atomic.Uint64
	// OutPackets and OutBytes count datagrams relayed out of the session.
	OutPackets atomic.Uint64
	OutBytes   atomic.Uint64
	// Repairs counts data packets reconstructed from FEC parity.
	Repairs atomic.Uint64
	// Drops counts datagrams discarded: inbound queue overflow, sends with no
	// known peer, and send errors.
	Drops atomic.Uint64
}

// SessionStats is a point-in-time snapshot of one session's counters, as
// carried in control-protocol status replies.
type SessionStats struct {
	ID uint32 `json:"id"`
	// Shard is the index of the engine data-plane shard that owns the
	// session (its table slot and all of its outbound datagrams).
	Shard      int    `json:"shard"`
	Packets    uint64 `json:"packets"`
	Bytes      uint64 `json:"bytes"`
	OutPackets uint64 `json:"out_packets"`
	OutBytes   uint64 `json:"out_bytes"`
	Repairs    uint64 `json:"repairs"`
	Drops      uint64 `json:"drops"`
	// Adapt carries the session's adaptation-plane state; nil when the
	// engine runs without the closed loop. On a fan-out session with
	// per-receiver branches it aggregates across receivers (worst protection
	// level, total reports/retunes); the per-receiver breakdown is in
	// Receivers.
	Adapt *AdaptStats `json:"adapt,omitempty"`
	// Receivers is the per-receiver breakdown of a fan-out session's delivery
	// tree: one entry per member, ordered by receiver address. Empty for
	// unicast (echo/forward) sessions.
	Receivers []ReceiverStats `json:"receivers,omitempty"`
	// Cohorts counts the session's distinct delivery cohorts: groups of
	// receivers at the same protection level sharing one branch chain and one
	// encode. len(Receivers) receivers served by 1 cohort is the homogeneous
	// ideal; one cohort per receiver is full heterogeneity.
	Cohorts int `json:"cohorts,omitempty"`
	// Chain is the canonical spec string of the session's trunk plan, the
	// form accepted back by the recompose control operation. On a parked
	// session it is the retained plan the chain will be rebuilt from.
	Chain string `json:"chain,omitempty"`
	// Stages is the per-stage view of the trunk plan, in chain order. Empty
	// while parked (there are no running instances to describe).
	Stages []StageStats `json:"stages,omitempty"`
	// Parked reports whether the session is currently parked: its chain and
	// goroutines released after the idle TTL, ready to be rebuilt from the
	// retained plan on the next datagram.
	Parked bool `json:"parked,omitempty"`
	// IdleForMs is how long ago the engine's maintenance tick last observed
	// activity on the session, in milliseconds. 0 when idle harvesting is
	// off.
	IdleForMs int64 `json:"idle_for_ms,omitempty"`
}

// StageStats is the control-plane view of one stage of a composed chain: its
// plan spec, the instance currently realizing it (if any), and the traffic
// that has moved through it.
type StageStats struct {
	// Kind is the stage's registered kind; Spec is its canonical one-stage
	// spec (kind or kind=arg).
	Kind string `json:"kind"`
	Spec string `json:"spec"`
	// Name is the running filter instance's name; empty for a marker stage
	// (e.g. fec-adapt) whose instance is not currently spliced in.
	Name string `json:"name,omitempty"`
	// Active reports whether a filter instance is live at this stage.
	Active bool `json:"active"`
	// InBytes and OutBytes count the bytes the stage's instance has read and
	// written since it was spliced in.
	InBytes  uint64 `json:"in_bytes"`
	OutBytes uint64 `json:"out_bytes"`
}

// ReceiverCounters is the per-branch counter block maintained on the engine's
// fan-out send path; all fields are atomics so branch output never takes a
// lock to account for a datagram.
type ReceiverCounters struct {
	// OutPackets and OutBytes count datagrams sent to this receiver.
	OutPackets atomic.Uint64
	OutBytes   atomic.Uint64
	// Drops counts datagrams discarded for this receiver: branch queue
	// overflow, writer queue overflow and send errors.
	Drops atomic.Uint64
	// Primed counts historical frames replayed into this receiver's branch
	// from the trunk's replay cache when the branch was built (late join).
	Primed atomic.Uint64
}

// ReceiverStats is the point-in-time state of one receiver's delivery branch
// in a fan-out session: the branch's own relay counters, its filter tail, and
// — when the per-receiver adaptation loop is on — the protection level that
// receiver's own loss reports have selected.
type ReceiverStats struct {
	// Receiver is the downstream station's UDP address.
	Receiver   string `json:"receiver"`
	OutPackets uint64 `json:"out_packets"`
	OutBytes   uint64 `json:"out_bytes"`
	Drops      uint64 `json:"drops"`
	// Primed counts historical frames replayed into this branch when it was
	// built, priming a late-joining station from the trunk's replay cache.
	Primed uint64 `json:"primed,omitempty"`
	// Stages lists the branch tail's interior filter stages, in order.
	Stages []string `json:"stages,omitempty"`
	// Chain is the canonical spec string of the branch tail's plan, the form
	// accepted back by the recompose control operation.
	Chain string `json:"chain,omitempty"`
	// K and N are the code currently protecting this receiver's branch
	// (K == N means no FEC); Active reports whether an encoder is spliced in.
	K      int  `json:"k,omitempty"`
	N      int  `json:"n,omitempty"`
	Active bool `json:"active,omitempty"`
	// LossRate is the loss this receiver last reported (as acted on by its
	// branch responder); Reports counts its reports, Retunes its branch's
	// protection-level changes, and HighestSeq the highest sequence number it
	// acknowledged.
	LossRate   float64 `json:"loss_rate,omitempty"`
	Reports    uint64  `json:"reports,omitempty"`
	Retunes    uint64  `json:"retunes,omitempty"`
	HighestSeq uint64  `json:"highest_seq,omitempty"`
	// Mechanism names the repair mechanism this receiver's branch responder
	// last selected ("none", "fec" or "arq"); empty without adaptation.
	Mechanism string `json:"mechanism,omitempty"`
}

// Snapshot captures the receiver counter block for one branch.
func (c *ReceiverCounters) Snapshot(receiver string) ReceiverStats {
	return ReceiverStats{
		Receiver:   receiver,
		OutPackets: c.OutPackets.Load(),
		OutBytes:   c.OutBytes.Load(),
		Drops:      c.Drops.Load(),
		Primed:     c.Primed.Load(),
	}
}

// AdaptStats is the adaptation-plane state of one engine session: the code
// currently protecting the stream, the loss feedback that selected it, and
// how often the control loop has rewritten the chain.
type AdaptStats struct {
	// K and N are the currently selected erasure code; K == N means the
	// policy has the session on the pure relay path (no FEC).
	K int `json:"k"`
	N int `json:"n"`
	// Active reports whether an FEC encoder is spliced into the chain.
	Active bool `json:"active"`
	// LossRate is the worst receiver-reported loss the loop last acted on.
	LossRate float64 `json:"loss_rate"`
	// Reports counts receiver reports consumed; Receivers counts the
	// distinct receivers that have reported.
	Reports   uint64 `json:"reports"`
	Receivers int    `json:"receivers"`
	// Retunes counts protection-level changes: encoder insertions, removals
	// and in-place (n,k) switches.
	Retunes uint64 `json:"retunes"`
	// Expired counts receivers aged out by the report-staleness window (a
	// station that stopped reporting without leaving the group).
	Expired uint64 `json:"expired,omitempty"`
	// Mechanism names the repair mechanism the loop last selected ("none",
	// "fec" or "arq"). On fan-out sessions it is the worst branch's choice.
	Mechanism string `json:"mechanism,omitempty"`
	// HighestSeq is the highest sequence number any receiver acknowledged.
	HighestSeq uint64 `json:"highest_seq"`
}

// EngineStats is an engine-level counter snapshot, aggregated across the
// data plane's shards on demand.
type EngineStats struct {
	// ActiveSessions counts registered sessions: LiveSessions with running
	// chains plus ParkedSessions idle-harvested down to their compact
	// records. All three are O(1) gauge reads, never table walks.
	ActiveSessions int    `json:"active_sessions"`
	LiveSessions   int    `json:"live_sessions"`
	ParkedSessions int    `json:"parked_sessions"`
	TotalSessions  uint64 `json:"total_sessions"`
	// Parks and Unparks count idle-session park/rebuild transitions;
	// Harvested counts sessions evicted by the admission harvester to make
	// room at MaxSessions; AdmissionDrops counts new sessions refused at
	// capacity.
	Parks          uint64 `json:"parks,omitempty"`
	Unparks        uint64 `json:"unparks,omitempty"`
	Harvested      uint64 `json:"harvested,omitempty"`
	AdmissionDrops uint64 `json:"admission_drops,omitempty"`
	Datagrams      uint64 `json:"datagrams"`
	Malformed      uint64 `json:"malformed"`
	Rejected       uint64 `json:"rejected"`
	ChainErrors    uint64 `json:"chain_errors"`
	Feedback       uint64 `json:"feedback"`
	// Nacks counts KindNack datagrams accepted off the feedback wire;
	// Retransmits counts the historical frames re-sent in answer to them.
	Nacks       uint64 `json:"nacks,omitempty"`
	Retransmits uint64 `json:"retransmits,omitempty"`
	// Shards is the width of the engine's data plane: the number of reader
	// goroutines, session-table shards and batched writers.
	Shards int `json:"shards"`
	// BatchedWrites counts the queue entries sent through the shard writers,
	// a cohort frame once however many members it goes to; WriteFlushes
	// counts flushes of at most 64 entries each, so
	// BatchedWrites/WriteFlushes is the mean flush size. Within a flush, per
	// destination and session, unicast datagrams keep queue order and a
	// cohort's data frames and its parity frames each keep queue order, the
	// parity after the data. WriteDrops counts datagrams discarded because a
	// shard's outbound queue was full or a send failed.
	BatchedWrites uint64 `json:"batched_writes"`
	WriteFlushes  uint64 `json:"write_flushes"`
	WriteDrops    uint64 `json:"write_drops"`
	// RecvCalls and SendCalls count receive and send syscalls issued by the
	// shard loops. With batched I/O each call can move many datagrams, so
	// Datagrams/RecvCalls and BatchedWrites/SendCalls are the read and write
	// batch-fill factors, and (RecvCalls+SendCalls)/(Datagrams+BatchedWrites)
	// is the syscalls-per-packet figure the batching exists to shrink.
	RecvCalls uint64 `json:"recv_calls"`
	SendCalls uint64 `json:"send_calls"`
	// GSODatagrams counts the BatchedWrites the kernel accepted inside
	// multi-segment UDP GSO sends: its share of BatchedWrites is the send
	// side's GSO coverage, and 0 under traffic means GSO was refused or the
	// platform lacks it.
	GSODatagrams uint64 `json:"gso_datagrams"`
	// SentDatagrams counts the datagrams the kernel accepted, a cohort frame
	// once per member, and SendEntries the send entries that carried them, a
	// GSO run once: SentDatagrams/SendEntries is the mean number of
	// datagrams per kernel traversal, the figure cohort fan-out flushing
	// raises.
	SentDatagrams uint64 `json:"sent_datagrams"`
	SendEntries   uint64 `json:"send_entries"`
	// BypassHits counts trunk frames delivered through a cohort bypass lane
	// (no chain, no copy); CoalescedSends counts cohort frames the writers
	// fanned to two or more receivers off one shared chain traversal.
	BypassHits     uint64 `json:"bypass_hits,omitempty"`
	CoalescedSends uint64 `json:"coalesced_sends,omitempty"`
}

// ShardStats is the counter snapshot of one engine data-plane shard.
// Reader-side counters (Datagrams, Malformed, Rejected, Feedback) reflect
// what the shard's reader goroutine pulled off its socket — in the shared-
// socket mode any reader can receive any session's datagrams, so these
// describe reader load, not session placement. Sessions, ChainErrors and the
// writer counters are attributed to the shard that owns the session.
type ShardStats struct {
	Shard       int    `json:"shard"`
	Sessions    int    `json:"sessions"`
	Datagrams   uint64 `json:"datagrams"`
	Malformed   uint64 `json:"malformed"`
	Rejected    uint64 `json:"rejected"`
	Feedback    uint64 `json:"feedback"`
	Nacks       uint64 `json:"nacks,omitempty"`
	Retransmits uint64 `json:"retransmits,omitempty"`
	ChainErrors uint64 `json:"chain_errors"`
	Writes      uint64 `json:"writes"`
	Flushes     uint64 `json:"flushes"`
	WriteDrops  uint64 `json:"write_drops"`
	// RecvCalls and SendCalls count this shard's receive and send syscalls;
	// see EngineStats for the derived batch-fill and syscalls-per-packet
	// readings.
	RecvCalls uint64 `json:"recv_calls"`
	SendCalls uint64 `json:"send_calls"`
	// GSODatagrams, SentDatagrams and SendEntries are this shard's shares of
	// the EngineStats figures.
	GSODatagrams  uint64 `json:"gso_datagrams"`
	SentDatagrams uint64 `json:"sent_datagrams"`
	SendEntries   uint64 `json:"send_entries"`
	// Parked gauges this shard's currently parked sessions (a subset of
	// Sessions); Parks/Unparks/Harvested/AdmissionDrops count the park and
	// admission lifecycle events attributed to this shard.
	Parked         int    `json:"parked"`
	Parks          uint64 `json:"parks,omitempty"`
	Unparks        uint64 `json:"unparks,omitempty"`
	Harvested      uint64 `json:"harvested,omitempty"`
	AdmissionDrops uint64 `json:"admission_drops,omitempty"`
	// BypassHits and CoalescedSends are this shard's delivery-cohort
	// accounting; see EngineStats.
	BypassHits     uint64 `json:"bypass_hits,omitempty"`
	CoalescedSends uint64 `json:"coalesced_sends,omitempty"`
}

// Snapshot captures the counters for the session with the given ID.
func (c *SessionCounters) Snapshot(id uint32) SessionStats {
	return SessionStats{
		ID:         id,
		Packets:    c.Packets.Load(),
		Bytes:      c.Bytes.Load(),
		OutPackets: c.OutPackets.Load(),
		OutBytes:   c.OutBytes.Load(),
		Repairs:    c.Repairs.Load(),
		Drops:      c.Drops.Load(),
	}
}
