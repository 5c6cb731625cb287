package control

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// serve runs serveConn on one end of a pipe, writes data into the other and
// hangs up, returning the reply bytes the client read before then.
func serve(t testing.TB, s *Server, data []byte) []byte {
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.serveConn(server)
		server.Close()
	}()
	var replies bytes.Buffer
	read := make(chan struct{})
	go func() {
		defer close(read)
		io.Copy(&replies, client)
	}()
	client.Write(data) // returns once the server read it all, or hung up
	client.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serveConn never returned")
	}
	<-read
	return replies.Bytes()
}

// FuzzControlRequest feeds raw bytes to a control connection: whatever
// arrives, the server must neither panic nor hang, and must hang up on a
// request larger than maxRequestBytes.
func FuzzControlRequest(f *testing.F) {
	f.Add([]byte(`{"op":"ping"}` + "\n"))
	f.Add([]byte(`{"op":"sessions"}{"op":"kinds"}{"op":"stats"}`))
	f.Add([]byte(`{"op":"recompose","session":"7","chain":"counting"}`))
	f.Add([]byte(`{"op":"insert","session":"x","stage":"delay=1ms","position":-1}`))
	f.Add([]byte(`[[[[[[[[[[[[[[[[[[[[`))
	f.Fuzz(func(t *testing.T, data []byte) {
		serve(t, NewServer(nil), data)
	})
}

// TestServeConnCapsRequestSize: a request over the cap gets no reply and a
// closed connection, while a legal one before it is answered.
func TestServeConnCapsRequestSize(t *testing.T) {
	huge := `{"op":"ping","chain":"` + strings.Repeat("x", maxRequestBytes) + `"}`
	replies := serve(t, NewServer(nil), []byte(`{"op":"ping"}`+"\n"+huge+"\n"+`{"op":"ping"}`))
	if n := bytes.Count(replies, []byte("\n")); n != 1 {
		t.Fatalf("server sent %d replies, want 1 (the oversized request must end the connection): %q", n, replies)
	}
}
