package compose

import (
	"fmt"

	"rapidware/internal/metrics"
)

// StreamSession serves one Live — rapidproxy's single-stream mode — to the
// control plane as the only session of its proxy, addressed by the Live's
// Env.StreamID. It implements the control package's Composer with the same
// plan edits the engine applies to its sessions, so a stream is recomposed,
// listed and edited stage by stage exactly like an engine session. A stream
// has no delivery branches: every operation naming a receiver fails.
type StreamSession struct {
	live *Live
}

// NewStreamSession returns the control-plane view of live.
func NewStreamSession(live *Live) *StreamSession {
	return &StreamSession{live: live}
}

// SessionStats reports the stream as one session: its plan and per-stage
// view. A stream carries bytes, not datagrams, so the per-stage counters are
// its traffic figures.
func (s *StreamSession) SessionStats() []metrics.SessionStats {
	return []metrics.SessionStats{{
		ID:     s.live.env.StreamID,
		Chain:  s.live.String(),
		Stages: s.live.StageStats(),
	}}
}

// Kinds lists the stage kinds the stream's registry can compose.
func (s *StreamSession) Kinds() []string { return s.live.reg.Kinds() }

// RecomposeSession rewrites the stream's whole plan to the target spec.
func (s *StreamSession) RecomposeSession(id uint32, receiver, target string) (string, error) {
	return s.edit(id, receiver, func(Plan) (Plan, error) {
		return ParseWith(s.live.reg, target, s.live.mode)
	})
}

// InsertSessionStage splices one stage spec in at a plan position.
func (s *StreamSession) InsertSessionStage(id uint32, receiver, stage string, pos int) (string, error) {
	return s.edit(id, receiver, func(cur Plan) (Plan, error) {
		st, err := ParseStage(s.live.reg, stage, s.live.mode)
		if err != nil {
			return Plan{}, err
		}
		return cur.WithInsert(pos, st)
	})
}

// RemoveSessionStage removes the stage sel selects (a plan position or kind).
func (s *StreamSession) RemoveSessionStage(id uint32, receiver, sel string) (string, error) {
	return s.edit(id, receiver, func(cur Plan) (Plan, error) {
		return cur.WithRemoveSelected(sel)
	})
}

// MoveSessionStage relocates a stage, keeping its running instance.
func (s *StreamSession) MoveSessionStage(id uint32, receiver string, from, to int) (string, error) {
	return s.edit(id, receiver, func(cur Plan) (Plan, error) {
		return cur.WithMove(from, to)
	})
}

// edit checks the address and applies one plan rewrite, returning the
// canonical plan after it.
func (s *StreamSession) edit(id uint32, receiver string, op func(Plan) (Plan, error)) (string, error) {
	if want := s.live.env.StreamID; id != want {
		return "", fmt.Errorf("compose: unknown session %d (this stream is session %d)", id, want)
	}
	if receiver != "" {
		return "", fmt.Errorf("compose: session %d has no delivery branches", id)
	}
	if err := s.live.Edit(op); err != nil {
		return "", err
	}
	return s.live.String(), nil
}
