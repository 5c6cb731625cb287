package control

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"rapidware/internal/metrics"
)

// roundTripTimeout bounds one request/reply exchange, so a server that
// accepts and never answers fails the call instead of hanging it. It is well
// above the server's own writeTimeout: a slow but live server still answers.
const roundTripTimeout = 30 * time.Second

// Client is the programmatic ControlManager: it connects to a proxy's control
// server and drives the management operations. A Client is safe for
// concurrent use; requests are serialized over the single connection.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	enc     *json.Encoder
	dec     *json.Decoder
	timeout time.Duration // per round trip; roundTripTimeout
}

// Dial connects to a control server. timeout bounds the connect; every
// request after it is bounded by roundTripTimeout.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("control: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(conn), timeout: roundTripTimeout}, nil
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// roundTrip sends one request and decodes its response. A transport failure
// (the deadline included) closes the connection: a reply that arrives late
// must never be read as the answer to the next request.
func (c *Client) roundTrip(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return Response{}, fmt.Errorf("control: %w", err)
	}
	if err := c.enc.Encode(req); err != nil {
		c.conn.Close()
		return Response{}, fmt.Errorf("control: send: %w", err)
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		c.conn.Close()
		return Response{}, fmt.Errorf("control: receive: %w", err)
	}
	if !resp.OK {
		return resp, errors.New(resp.Error)
	}
	return resp, nil
}

// Ping verifies the server is reachable.
func (c *Client) Ping() error {
	_, err := c.roundTrip(Request{Op: OpPing})
	return err
}

// Sessions fetches the per-session counters of the engine (or stream)
// attached to the server (empty when nothing is attached or no session is
// live).
func (c *Client) Sessions() ([]metrics.SessionStats, error) {
	resp, err := c.roundTrip(Request{Op: OpSessions})
	if err != nil {
		return nil, err
	}
	return resp.Sessions, nil
}

// Stats fetches the attached engine's aggregate counters and per-shard
// breakdown. It fails when the server has no engine attached.
func (c *Client) Stats() (*metrics.EngineStats, []metrics.ShardStats, error) {
	resp, err := c.roundTrip(Request{Op: OpStats})
	if err != nil {
		return nil, nil, err
	}
	return resp.Engine, resp.Shards, nil
}

// Kinds lists the stage kinds the server's composer can instantiate.
func (c *Client) Kinds() ([]string, error) {
	resp, err := c.roundTrip(Request{Op: OpKinds})
	if err != nil {
		return nil, err
	}
	return resp.Kinds, nil
}

// sessionKey renders a session ID for the wire (decimal, so ID 0 is
// distinguishable from "no session").
func sessionKey(session uint32) string {
	return strconv.FormatUint(uint64(session), 10)
}

// Compose atomically rewrites a live session's chain to the full
// target spec; receiver (optional) narrows the rewrite to the delivery
// branch serving that fan-out member. It returns the canonical plan string
// after the rewrite.
func (c *Client) Compose(session uint32, receiver, spec string) (string, error) {
	resp, err := c.roundTrip(Request{Op: OpRecompose, Session: sessionKey(session), Receiver: receiver, Chain: spec})
	if err != nil {
		return "", err
	}
	return resp.Chain, nil
}

// SessionInsert splices one stage (spec syntax, e.g. "delay=5ms") into a
// live session's chain at the given plan position.
func (c *Client) SessionInsert(session uint32, receiver, stage string, pos int) (string, error) {
	resp, err := c.roundTrip(Request{Op: OpInsert, Session: sessionKey(session), Receiver: receiver, Stage: stage, Position: pos})
	if err != nil {
		return "", err
	}
	return resp.Chain, nil
}

// SessionRemove removes a stage from a live session's chain; sel is a plan
// position or a stage kind.
func (c *Client) SessionRemove(session uint32, receiver, sel string) (string, error) {
	resp, err := c.roundTrip(Request{Op: OpRemove, Session: sessionKey(session), Receiver: receiver, Stage: sel})
	if err != nil {
		return "", err
	}
	return resp.Chain, nil
}

// SessionMove relocates a stage between plan positions of a live session's
// chain, preserving its running instance.
func (c *Client) SessionMove(session uint32, receiver string, from, to int) (string, error) {
	resp, err := c.roundTrip(Request{Op: OpMove, Session: sessionKey(session), Receiver: receiver, Position: from, Target: to})
	if err != nil {
		return "", err
	}
	return resp.Chain, nil
}
