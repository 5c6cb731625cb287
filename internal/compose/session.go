package compose

import (
	"fmt"

	"rapidware/internal/metrics"
)

// StreamSession serves one Live — rapidproxy's single-stream mode — to the
// control plane as the only session of its proxy, addressed by the Live's
// Env.StreamID. It implements the control package's Composer with the same
// Edits the engine applies to its sessions, so a stream is recomposed,
// listed and edited stage by stage exactly like an engine session. A stream
// has no delivery branches: every edit naming a receiver fails.
type StreamSession struct {
	live *Live
}

// NewStreamSession returns the control-plane view of live.
func NewStreamSession(live *Live) *StreamSession {
	return &StreamSession{live: live}
}

// SessionStats yields the stream as the one session: its plan and per-stage
// view. A stream carries bytes, not datagrams, so the per-stage counters are
// its traffic figures.
func (s *StreamSession) SessionStats(yield func(metrics.SessionStats) bool) {
	yield(metrics.SessionStats{
		ID:     s.live.env.StreamID,
		Chain:  s.live.String(),
		Stages: s.live.StageStats(),
	})
}

// Kinds lists the stage kinds the stream's registry can compose.
func (s *StreamSession) Kinds() []string { return s.live.reg.Kinds() }

// EditSession checks the address and applies e to the stream's chain,
// returning the canonical plan after it.
func (s *StreamSession) EditSession(id uint32, receiver string, e Edit) (string, error) {
	if want := s.live.env.StreamID; id != want {
		return "", fmt.Errorf("compose: unknown session %d (this stream is session %d)", id, want)
	}
	if receiver != "" {
		return "", fmt.Errorf("compose: session %d has no delivery branches", id)
	}
	if err := s.live.Edit(e); err != nil {
		return "", err
	}
	return s.live.String(), nil
}
