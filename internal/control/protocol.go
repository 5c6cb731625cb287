// Package control implements the RAPIDware management plane: a JSON-over-TCP
// control protocol through which an administrator (the paper's Swing-based
// ControlManager GUI, here a programmatic client and the rapidctl CLI) or an
// application can query a proxy's sessions and insert, remove, reorder and
// recompose the stages of their running chains.
//
// Every chain the protocol changes is a session: an engine session, or the
// single stream of rapidproxy's stream mode served as one session through
// compose.StreamSession. Both implement Composer. The server turns each
// change request into one compose.Edit — Replace, Insert, Remove or Move —
// and hands it to Composer.EditSession, which applies it as a plan rewrite
// through compose.Live (or, for a fan-out receiver, to that receiver's tail
// plan).
//
// A sessions reply lists every session ordered by ID, and is streamed: the
// server encodes one session at a time into a fixed per-connection buffer,
// so listing a table of a million sessions holds one pointer per session,
// not the encoded listing. On the wire it is the same one JSON line as any
// other reply.
//
// The paper delivered new filters by Java object serialization; Go cannot
// load code at run time, so the protocol carries stage specs in the compose
// spec language (a registered kind plus its argument, e.g. "fec-encode=6/4")
// that the proxy instantiates from its compose registry. README.md's "Live
// composition" section shows the operations end to end.
package control

import (
	"fmt"

	"rapidware/internal/metrics"
)

// Op enumerates the control operations.
type Op string

// Control operations.
const (
	// OpKinds lists the stage kinds the attached composer can instantiate.
	OpKinds Op = "kinds"
	// OpInsert splices the one-stage spec Stage into Session's chain at plan
	// position Position.
	OpInsert Op = "insert"
	// OpRemove removes the stage Stage selects (a plan position or a kind)
	// from Session's chain.
	OpRemove Op = "remove"
	// OpMove relocates a stage of Session's chain from plan position Position
	// to Target.
	OpMove Op = "move"
	// OpPing verifies liveness.
	OpPing Op = "ping"
	// OpSessions returns the per-session relay counters of the attached
	// multi-session engine, including each session's owning data-plane shard,
	// its composed chain (canonical plan string plus a per-stage view), its
	// adaptation-plane state (current (n,k), last loss report, retune
	// count) when the engine runs with the closed loop enabled, and — on
	// fan-out sessions with per-receiver delivery branches — the receiver
	// breakdown: each branch's counters, filter tail and protection level.
	// Sessions are ordered by ID, and the reply is streamed.
	OpSessions Op = "sessions"
	// OpStats returns the attached engine's aggregate counters and a
	// per-shard breakdown of its data plane.
	OpStats Op = "stats"
	// OpRecompose atomically rewrites a live session's chain to the full
	// target spec in Chain (Session selects the session; Receiver optionally
	// selects one delivery branch). Stages the current plan already contains
	// keep their running instances; the rest are built and the drop-outs
	// stopped, in one splice that never drops relayed data.
	OpRecompose Op = "recompose"
)

// Request is one control-plane command.
type Request struct {
	Op       Op  `json:"op"`
	Position int `json:"position,omitempty"`
	Target   int `json:"target,omitempty"`
	// Session addresses a live session by wire ID (decimal string, so session
	// 0 is distinguishable from "no session"). OpInsert, OpRemove, OpMove and
	// OpRecompose require it.
	Session string `json:"session,omitempty"`
	// Receiver optionally narrows a session-scoped operation to the delivery
	// branch serving one fan-out receiver (its UDP address).
	Receiver string `json:"receiver,omitempty"`
	// Stage is a one-stage spec ("kind" or "kind=arg") for OpInsert, or a
	// stage selector (plan position or kind) for OpRemove.
	Stage string `json:"stage,omitempty"`
	// Chain is OpRecompose's full target spec (may be empty: a pure relay).
	Chain string `json:"chain,omitempty"`
}

// Response is the reply to a Request.
type Response struct {
	OK       bool                   `json:"ok"`
	Error    string                 `json:"error,omitempty"`
	Kinds    []string               `json:"kinds,omitempty"`
	Sessions []metrics.SessionStats `json:"sessions,omitempty"`
	Engine   *metrics.EngineStats   `json:"engine,omitempty"`
	Shards   []metrics.ShardStats   `json:"shards,omitempty"`
	// Chain is the canonical plan string of the addressed session chain
	// after a composition operation.
	Chain string `json:"chain,omitempty"`
}

// Validate checks a request for obvious problems before dispatch.
func (r Request) Validate() error {
	switch r.Op {
	case OpKinds, OpPing, OpSessions, OpStats:
		return nil
	case OpRecompose, OpInsert, OpRemove, OpMove:
		if r.Session == "" {
			return fmt.Errorf("control: %s requires a session ID", r.Op)
		}
		if r.Op == OpInsert && r.Stage == "" {
			return fmt.Errorf("control: insert requires a stage spec")
		}
		if r.Op == OpRemove && r.Stage == "" {
			return fmt.Errorf("control: remove requires a stage selector (position or kind)")
		}
		return nil
	default:
		return fmt.Errorf("control: unknown op %q", r.Op)
	}
}
