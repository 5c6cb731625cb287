package control

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"rapidware/internal/compose"
	"rapidware/internal/metrics"
)

// SessionSource provides per-session statistics for OpSessions; it is
// implemented by the multi-session proxy engine and by compose.StreamSession.
// SessionStats yields every session, ordered by ID, and stops when yield
// returns false; the server streams each one into the reply as it comes, so
// a listing never holds more than one session's stats.
type SessionSource interface {
	SessionStats(yield func(metrics.SessionStats) bool)
}

// EngineSource is implemented by session sources that also expose aggregate
// engine counters and a per-shard breakdown of the data plane (the sharded
// proxy engine). OpStats requires it.
type EngineSource interface {
	SessionSource
	EngineStats() metrics.EngineStats
	ShardStats() []metrics.ShardStats
}

// Composer is implemented by session sources whose live sessions can be
// edited through the control plane (the proxy engine, and
// compose.StreamSession for stream mode). EditSession applies one
// compose.Edit to one session — and, with a receiver address, to that
// delivery branch — and returns the canonical plan string after it; the
// server builds the Edit from the request, so every composer shares one
// vocabulary of changes. OpKinds, OpInsert, OpRemove, OpMove and OpRecompose
// require it.
type Composer interface {
	SessionSource
	Kinds() []string
	EditSession(id uint32, receiver string, e compose.Edit) (string, error)
}

// Server exposes one session source over the control protocol. Each
// accepted connection carries a sequence of newline-delimited JSON requests
// and responses.
type Server struct {
	mu       sync.Mutex
	sessions SessionSource
	ln       net.Listener
	wg       sync.WaitGroup
	closed   bool
	logger   *log.Logger
}

// NewServer returns a server with no session source attached.
func NewServer(logger *log.Logger) *Server {
	return &Server{logger: logger}
}

// SetSessionSource attaches the engine (or stream session) the server
// answers for.
func (s *Server) SetSessionSource(src SessionSource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sessions = src
}

// source returns the attached session source, or nil.
func (s *Server) source() SessionSource {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions
}

// engineStats snapshots the attached engine's aggregate and per-shard
// counters, or nil when no engine (or a stats-less session source) is
// attached.
func (s *Server) engineStats() (*metrics.EngineStats, []metrics.ShardStats) {
	es, ok := s.source().(EngineSource)
	if !ok {
		return nil, nil
	}
	stats := es.EngineStats()
	return &stats, es.ShardStats()
}

// Listen starts accepting control connections on addr ("host:port"; use
// ":0" to pick a free port). It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("control: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

// Per-connection limits. A request may read at most maxRequestBytes off the
// wire, a connection may sit idle between requests for idleTimeout, and a
// reply must be written within writeTimeout; a peer that breaks one is
// disconnected. Replies leave through a buffer of replyBufferBytes.
const (
	maxRequestBytes  = 64 << 10
	replyBufferBytes = 16 << 10
	idleTimeout      = 5 * time.Minute
	writeTimeout     = 10 * time.Second
)

// serveConn handles one control connection. Deadlines apply when conn
// supports them (a net.Conn does). Every reply leaves through one buffered
// writer, and a sessions reply is streamed into it (writeSessions).
func (s *Server) serveConn(conn io.ReadWriter) {
	dl, _ := conn.(interface {
		SetReadDeadline(time.Time) error
		SetWriteDeadline(time.Time) error
	})
	// The decoder buffers what it read ahead; refilling the limit per
	// request bounds that buffer, and so the connection's memory, too.
	lim := &io.LimitedReader{R: conn}
	dec := json.NewDecoder(lim)
	w := bufio.NewWriterSize(conn, replyBufferBytes)
	enc := json.NewEncoder(w)
	var elem sessionEncoder
	for {
		lim.N = maxRequestBytes
		if dl != nil {
			dl.SetReadDeadline(time.Now().Add(idleTimeout))
		}
		var req Request
		if err := dec.Decode(&req); err != nil {
			if !errors.Is(err, io.EOF) && s.logger != nil {
				s.logger.Printf("control: decode: %v", err)
			}
			return
		}
		if dl != nil {
			dl.SetWriteDeadline(time.Now().Add(writeTimeout))
		}
		var err error
		if req.Op == OpSessions {
			err = s.writeSessions(w, &elem)
		} else {
			err = enc.Encode(s.Handle(req))
		}
		if err == nil {
			err = w.Flush()
		}
		if err != nil {
			if s.logger != nil {
				s.logger.Printf("control: reply: %v", err)
			}
			return
		}
	}
}

// sessionEncoder encodes one session of a sessions reply at a time into buf,
// which it reuses. cur is the session being encoded: handing Encode a
// pointer to it, not a copy, keeps each session from boxing onto the heap.
type sessionEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
	cur metrics.SessionStats
}

// writeSessions streams the OpSessions reply to w: byte for byte what
// json.Encoder writes for Response{OK: true, Sessions: every session}, but
// encoded one session at a time, so the reply never holds the listing. An
// error stops the listing, and serveConn ends the connection on it. The
// writes left unchecked need no check: w keeps its first error and returns
// it from every later write.
func (s *Server) writeSessions(w *bufio.Writer, e *sessionEncoder) error {
	if e.enc == nil {
		e.enc = json.NewEncoder(&e.buf)
	}
	w.WriteString(`{"ok":true`)
	sep := `,"sessions":[`
	var err error
	if src := s.source(); src != nil {
		for e.cur = range src.SessionStats {
			e.buf.Reset()
			if err = e.enc.Encode(&e.cur); err != nil {
				break
			}
			w.WriteString(sep)
			sep = ","
			// Encode ends each value with a newline; an array element has none.
			if _, err = w.Write(e.buf.Bytes()[:e.buf.Len()-1]); err != nil {
				break
			}
		}
	}
	if err != nil {
		return err
	}
	if sep == "," {
		w.WriteByte(']')
	}
	_, err = w.WriteString("}\n")
	return err
}

// composer returns the attached session source's composition surface, or nil
// when no engine (or a compose-less source) is attached.
func (s *Server) composer() Composer {
	c, _ := s.source().(Composer)
	return c
}

// handleSessionOp turns a composition request into its compose.Edit and
// applies it through the attached composer. Validate has already checked the
// request's shape.
func (s *Server) handleSessionOp(comp Composer, req Request) Response {
	id, err := strconv.ParseUint(req.Session, 10, 32)
	if err != nil {
		return Response{Error: fmt.Sprintf("control: session ID %q: %v", req.Session, err)}
	}
	var edit compose.Edit
	switch req.Op {
	case OpRecompose:
		edit = compose.Replace(req.Chain)
	case OpInsert:
		edit = compose.Insert(req.Stage, req.Position)
	case OpRemove:
		edit = compose.Remove(req.Stage)
	default: // OpMove
		edit = compose.Move(req.Position, req.Target)
	}
	chain, err := comp.EditSession(uint32(id), req.Receiver, edit)
	if err != nil {
		return Response{Error: err.Error()}
	}
	return Response{OK: true, Chain: chain}
}

// Handle executes one request against the attached session source. It is
// exported so in-process callers (tests, raplets) can use the same dispatch
// logic as the network path; it collects a sessions reply the network path
// streams.
func (s *Server) Handle(req Request) Response {
	if err := req.Validate(); err != nil {
		return Response{Error: err.Error()}
	}
	switch req.Op {
	case OpPing:
		return Response{OK: true}
	case OpSessions:
		var sessions []metrics.SessionStats
		if src := s.source(); src != nil {
			sessions = slices.Collect(src.SessionStats)
		}
		return Response{OK: true, Sessions: sessions}
	case OpStats:
		eng, shards := s.engineStats()
		if eng == nil {
			return Response{Error: "control: no engine attached"}
		}
		return Response{OK: true, Engine: eng, Shards: shards}
	}
	comp := s.composer()
	if comp == nil {
		return Response{Error: "control: no composable engine attached"}
	}
	if req.Op == OpKinds {
		return Response{OK: true, Kinds: comp.Kinds()}
	}
	return s.handleSessionOp(comp, req)
}

// Close stops accepting connections and waits for in-flight handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}
