package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"io"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// startPprof serves the responder on a loopback port until the test ends and
// returns the base URL of /debug/pprof/.
func startPprof(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go servePprof(ln)
	return "http://" + ln.Addr().String() + pprofPrefix
}

// get fetches url and returns the status and the whole body; it may be
// called off the test goroutine.
func get(url string) (int, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func mustGet(t *testing.T, url string, want int) []byte {
	t.Helper()
	status, body, err := get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if status != want {
		t.Fatalf("GET %s = %d %q, want %d", url, status, body, want)
	}
	return body
}

// gunzipped fails the test unless body is one complete gzip stream.
func gunzipped(t *testing.T, what string, body []byte) {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s: not gzip-framed: %v", what, err)
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		t.Fatalf("%s: truncated gzip stream: %v", what, err)
	}
}

func TestPprofServesProfiles(t *testing.T) {
	base := startPprof(t)
	gunzipped(t, "heap", mustGet(t, base+"heap", 200))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.NumGC
	gunzipped(t, "heap?gc=1", mustGet(t, base+"heap?gc=1", 200))
	if runtime.ReadMemStats(&ms); ms.NumGC == before {
		t.Fatal("heap?gc=1 ran no garbage collection")
	}
	gunzipped(t, "profile", mustGet(t, base+"profile?seconds=1", 200))
	if body := mustGet(t, base+"goroutine?debug=1", 200); !bytes.HasPrefix(body, []byte("goroutine profile:")) {
		t.Fatalf("goroutine?debug=1 starts %q, want the text profile", body[:min(len(body), 40)])
	}
	if body := mustGet(t, base+"trace?seconds=0.1", 200); !bytes.HasPrefix(body, []byte("go 1.")) {
		t.Fatalf("trace starts %q, want an execution trace header", body[:min(len(body), 16)])
	}
	if body := mustGet(t, base, 200); !bytes.Contains(body, []byte("goroutine")) || !bytes.Contains(body, []byte("profile")) {
		t.Fatalf("index = %q, want it to list goroutine and profile", body)
	}
}

// TestPprofFullHeaderBlockGetsWholeBody sends a request with a header block
// larger than one read and checks a reply larger than the client's receive
// buffer arrives whole: a responder that closed with header bytes unread
// would send a reset, which discards what it has not yet sent.
func TestPprofFullHeaderBlockGetsWholeBody(t *testing.T) {
	base := startPprof(t)
	// 1,000 parked goroutines make the goroutine?debug=2 dump ~300 KB,
	// several times the client's 64 KiB receive buffer.
	stop := make(chan struct{})
	var parked sync.WaitGroup
	for i := 0; i < 1000; i++ {
		parked.Add(1)
		go func() {
			defer parked.Done()
			<-stop
		}()
	}
	defer parked.Wait()
	defer close(stop)
	c, err := net.Dial("tcp", strings.TrimPrefix(strings.TrimSuffix(base, pprofPrefix), "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.(*net.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	var req strings.Builder
	req.WriteString("GET /debug/pprof/goroutine?debug=2 HTTP/1.1\r\nHost: localhost\r\n")
	for i := 0; i < 60; i++ {
		req.WriteString("X-Pad-" + strconv.Itoa(i) + ": " + strings.Repeat("a", 100) + "\r\n")
	}
	req.WriteString("\r\n")
	if _, err := io.WriteString(c, req.String()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading the body: %v after %d of %d bytes", err, len(body), resp.ContentLength)
	}
	if resp.StatusCode != 200 || int64(len(body)) != resp.ContentLength || !bytes.HasPrefix(body, []byte("goroutine ")) {
		t.Fatalf("got %d, %d of %d body bytes, want 200 and the whole goroutine dump", resp.StatusCode, len(body), resp.ContentLength)
	}
}

func TestPprofErrorStatuses(t *testing.T) {
	base := startPprof(t)
	body := mustGet(t, base+"nosuch", 404)
	if !bytes.Contains(body, []byte("goroutine")) || !bytes.Contains(body, []byte("trace")) {
		t.Fatalf("404 body = %q, want the index", body)
	}
	mustGet(t, strings.TrimSuffix(base, pprofPrefix)+"/metrics", 404)
	mustGet(t, base+"profile?seconds=x", 400)
	mustGet(t, base+"trace?seconds=-1", 400)
	mustGet(t, base+"goroutine?debug=x", 400)
	mustGet(t, base+"heap?seconds=5", 400)
	mustGet(t, base+"heap?gc=yes", 400)
	mustGet(t, base+"goroutine?gc=1", 400)
	resp, err := http.Post(base+"heap", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 || resp.Header.Get("Allow") != "GET" {
		t.Fatalf("POST = %d Allow %q, want 405 Allow GET", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// TestPprofSecondConcurrentProfileGets500: while one CPU profile records, a
// second one gets runtime/pprof's refusal as a 500, and the first one still
// completes.
func TestPprofSecondConcurrentProfileGets500(t *testing.T) {
	base := startPprof(t)
	var (
		wg          sync.WaitGroup
		firstStatus int
		firstBody   []byte
		firstErr    error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		firstStatus, firstBody, firstErr = get(base + "profile?seconds=2")
	}()
	// runtime/pprof's profileWriter goroutine runs exactly while a CPU
	// profile is being recorded.
	for deadline := time.Now().Add(5 * time.Second); !cpuProfiling(t); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first profile request never started profiling")
		}
	}
	if body := mustGet(t, base+"profile?seconds=1", 500); !bytes.Contains(body, []byte("already in use")) {
		t.Fatalf("500 body = %q, want StartCPUProfile's error", body)
	}
	wg.Wait()
	if firstErr != nil || firstStatus != 200 {
		t.Fatalf("first profile = %d, %v, want 200", firstStatus, firstErr)
	}
	gunzipped(t, "first profile", firstBody)
}

func cpuProfiling(t *testing.T) bool {
	var b strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
		t.Fatal(err)
	}
	return strings.Contains(b.String(), "runtime/pprof.profileWriter")
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// endless yields "GET /" and then 'a' forever: a request line with no end.
type endless struct{ started bool }

func (e *endless) Read(p []byte) (int, error) {
	n := 0
	if !e.started {
		n, e.started = copy(p, "GET /"), true
	}
	for i := n; i < len(p); i++ {
		p[i] = 'a'
	}
	return len(p), nil
}

func TestPprofOverlongRequestLineRefused(t *testing.T) {
	cr := &countingReader{r: &endless{}}
	if _, status, _ := parsePprofRequest(cr); status != 400 {
		t.Fatalf("status = %d, want 400", status)
	}
	if cr.n > maxRequest {
		t.Fatalf("read %d bytes, want at most the %d-byte cap", cr.n, maxRequest)
	}
}

// FuzzPprofRequest: any byte string is answered with a status the responder
// can send, and parsing reads at most maxRequest bytes.
func FuzzPprofRequest(f *testing.F) {
	for _, s := range []string{
		"GET /debug/pprof/ HTTP/1.1\r\n\r\n",
		"GET /debug/pprof/profile?seconds=1 HTTP/1.1\r\nHost: x\r\nUser-Agent: pprof\r\n\r\n",
		"GET /debug/pprof/goroutine?debug=2 HTTP/1.0\n\n",
		"GET /debug/pprof/trace?seconds=1e309 HTTP/1.1\r\n\r\n",
		"POST /debug/pprof/heap HTTP/1.1\r\nContent-Length: 1\r\n\r\nx",
		"GET /debug/pprof/heap?debug=%zz HTTP/1.1\r\n\r\n",
		"GET http://host/debug/pprof/nosuch HTTP/1.1\r\n\r\n",
		"GET /debug/pprof/heap HTTP/1.1\r\nHost: x",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cr := &countingReader{r: bytes.NewReader(data)}
		req, status, msg := parsePprofRequest(cr)
		switch status {
		case 200:
			if msg != "" {
				t.Fatalf("200 with message %q", msg)
			}
			if (req.name == "profile" || req.name == "trace") && !(req.seconds > 0 && req.seconds <= maxSeconds*time.Second) {
				t.Fatalf("%s window %v out of range", req.name, req.seconds)
			}
		case 400, 404, 405:
			if msg == "" {
				t.Fatalf("%d without a message", status)
			}
		default:
			t.Fatalf("status %d", status)
		}
		if cr.n > maxRequest {
			t.Fatalf("read %d bytes, cap %d", cr.n, maxRequest)
		}
	})
}

// TestRapidproxyLinksNoHTTPStack keeps net/http and its dependencies out of
// the binary. Linking net/http (as net/http/pprof did) pulls in crypto/tls,
// crypto/x509, html/template, mime and regexp: 201 packages instead of 106,
// a binary of 10.3 MB instead of 5.4 MB, and about 2.7 MiB more resident
// memory (VmHWM) in every proxy process, because the text is paged in. A
// new endpoint beside -pprof (a /metrics scrape, say) belongs in pprof.go's
// responder, not on net/http.
//
// It keeps the simulator and the experiment harness out too: the wireless
// channel, the figure runners, and the packages only examples and
// experiments build on (session, cache, raplet) are not part of the proxy.
func TestRapidproxyLinksNoHTTPStack(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go not on PATH")
	}
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		switch dep {
		case "net/http", "crypto/tls", "text/template", "html/template",
			"rapidware/internal/experiment", "rapidware/internal/session", "rapidware/internal/cache",
			"rapidware/internal/raplet", "rapidware/internal/wireless":
			t.Errorf("rapidproxy links %s", dep)
		}
	}
}
