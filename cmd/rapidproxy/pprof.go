package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"
)

// The -pprof responder serves /debug/pprof to `go tool pprof` and curl with
// the standard library's runtime/pprof and runtime/trace alone: linking
// net/http (and with it crypto/tls, crypto/x509, html/template, mime and
// regexp) for this one debug endpoint doubles the binary, and its text is
// resident in every proxy process. One GET per connection, answered with
// HTTP/1.0 and Connection: close; every body is built before the status line
// is written, so a failure is a status, never a truncated 200.
const (
	pprofPrefix = "/debug/pprof/"
	// maxRequest caps the request line and header block together.
	maxRequest = 8 << 10
	// requestTimeout bounds how long a client may take to send its request,
	// and writeTimeout how long it may take to read the reply.
	requestTimeout = 10 * time.Second
	writeTimeout   = 30 * time.Second
	// maxSeconds bounds a profile or trace window.
	maxSeconds = 3600

	textPlain   = "text/plain; charset=utf-8"
	octetStream = "application/octet-stream"
)

// pprofRequest is one parsed /debug/pprof request.
type pprofRequest struct {
	name    string        // "" for the index, "profile", "trace" or a runtime/pprof profile name
	seconds time.Duration // profile and trace window
	debug   int           // named profiles: 0 is the gzipped protobuf, >0 text
	gc      bool          // heap: collect first, so the profile is current
}

// servePprof answers /debug/pprof requests on ln until ln is closed.
func servePprof(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil { // out of descriptors and the like: wait for one to free up
			time.Sleep(50 * time.Millisecond)
			continue
		}
		go servePprofConn(c)
	}
}

func servePprofConn(c net.Conn) {
	defer c.Close()
	_ = c.SetReadDeadline(time.Now().Add(requestTimeout))
	req, status, msg := parsePprofRequest(c)
	ctype, body := textPlain, []byte(msg)
	if status == 200 {
		status, ctype, body = req.respond()
	}
	_ = c.SetWriteDeadline(time.Now().Add(writeTimeout))
	w := bufio.NewWriter(c)
	fmt.Fprintf(w, "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n", status, statusText[status], ctype, len(body))
	if status == 405 {
		w.WriteString("Allow: GET\r\n")
	}
	w.WriteString("\r\n")
	w.Write(body)
	_ = w.Flush() // the client is gone or stalled; nothing to tell it
}

var statusText = map[int]string{200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed", 500: "Internal Server Error"}

// parsePprofRequest reads one request's line and drains its header block to
// the blank line, reading at most maxRequest bytes of r: closing a connection
// with request bytes unread sends a reset, which can destroy the reply.
// status is 200 when req can be served; otherwise it is 400, 404 or 405 and
// msg is the body to answer with.
func parsePprofRequest(r io.Reader) (req pprofRequest, status int, msg string) {
	br := bufio.NewReader(&io.LimitedReader{R: r, N: maxRequest})
	line, err := br.ReadString('\n')
	if err != nil {
		return req, 400, "malformed request\n"
	}
	for {
		h, err := br.ReadString('\n')
		if err != nil {
			return req, 400, "malformed request\n"
		}
		if h == "\r\n" || h == "\n" {
			break
		}
	}
	method, rest, ok1 := strings.Cut(strings.TrimRight(line, "\r\n"), " ")
	target, _, ok2 := strings.Cut(rest, " ")
	if !ok1 || !ok2 {
		return req, 400, "malformed request line\n"
	}
	if method != "GET" {
		return req, 405, "only GET is served\n"
	}
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return req, 400, "malformed request target\n"
	}
	name, found := strings.CutPrefix(u.Path, pprofPrefix)
	if !found || name != "" && name != "profile" && name != "trace" && pprof.Lookup(name) == nil {
		return req, 404, fmt.Sprintf("unknown profile %q\n\n%s", u.Path, pprofIndex())
	}
	q, err := url.ParseQuery(u.RawQuery)
	if err != nil {
		return req, 400, "malformed query\n"
	}
	req.name = name
	switch name {
	case "profile", "trace":
		sec := 30.0
		if name == "trace" {
			sec = 1
		}
		if s := q.Get("seconds"); s != "" {
			if sec, err = strconv.ParseFloat(s, 64); err != nil || !(sec > 0 && sec <= maxSeconds) {
				return req, 400, fmt.Sprintf("seconds=%q: want a number in (0, %d]\n", s, maxSeconds)
			}
		}
		req.seconds = time.Duration(sec * float64(time.Second))
	default:
		if s := q.Get("seconds"); s != "" {
			return req, 400, "seconds applies to profile and trace only\n"
		}
		if s := q.Get("debug"); s != "" {
			if req.debug, err = strconv.Atoi(s); err != nil {
				return req, 400, fmt.Sprintf("debug=%q: want an integer\n", s)
			}
		}
		if s := q.Get("gc"); s != "" {
			gc, err := strconv.Atoi(s)
			if err != nil {
				return req, 400, fmt.Sprintf("gc=%q: want an integer\n", s)
			}
			if name != "heap" {
				return req, 400, "gc applies to heap only\n"
			}
			req.gc = gc > 0
		}
	}
	return req, 200, ""
}

// respond runs the request: a CPU profile or trace records for the window
// into a buffer, so a second one at the same time gets runtime/pprof's or
// runtime/trace's error as a 500.
func (req pprofRequest) respond() (status int, ctype string, body []byte) {
	var buf bytes.Buffer
	switch req.name {
	case "":
		return 200, textPlain, []byte(pprofIndex())
	case "profile":
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return 500, textPlain, []byte("could not enable CPU profiling: " + err.Error() + "\n")
		}
		time.Sleep(req.seconds)
		pprof.StopCPUProfile()
		return 200, octetStream, buf.Bytes()
	case "trace":
		if err := trace.Start(&buf); err != nil {
			return 500, textPlain, []byte("could not enable tracing: " + err.Error() + "\n")
		}
		time.Sleep(req.seconds)
		trace.Stop()
		return 200, octetStream, buf.Bytes()
	}
	if req.gc {
		// A heap profile shows the heap as of the last collection, which can
		// be seconds old.
		runtime.GC()
	}
	if err := pprof.Lookup(req.name).WriteTo(&buf, req.debug); err != nil {
		return 500, textPlain, []byte("writing profile: " + err.Error() + "\n")
	}
	if req.debug > 0 {
		return 200, textPlain, buf.Bytes()
	}
	return 200, octetStream, buf.Bytes()
}

// pprofIndex lists what the responder serves.
func pprofIndex() string {
	var b strings.Builder
	b.WriteString("/debug/pprof/ serves:\n")
	for _, p := range pprof.Profiles() {
		fmt.Fprintf(&b, "  %-14s %d  ?debug=1 for text\n", p.Name(), p.Count())
	}
	b.WriteString("  heap              ?gc=1 collects first, so the profile is current\n")
	b.WriteString("  profile           ?seconds=N (default 30): CPU profile\n")
	b.WriteString("  trace             ?seconds=N (default 1): execution trace\n")
	return b.String()
}
