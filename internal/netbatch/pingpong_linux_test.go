//go:build linux

package netbatch

import (
	"net"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"
)

const (
	// echoEnv marks the test binary re-executed as BenchmarkLoopbackPingPong's
	// echo peer.
	echoEnv = "NETBATCH_PINGPONG_ECHO"
	// idleSpell is how long the peer holds each datagram before echoing it:
	// longer than the runtime's 20 µs sysmon tick, so the benchmarking
	// process goes fully idle between send and reply, as a proxy does
	// between datagrams at a few thousand packets per second.
	idleSpell = 200 * time.Microsecond
)

// BenchmarkLoopbackPingPong times one datagram each way between two Conns on
// loopback: this process sends, then parks in ReadBatch until the echo
// peer's reply wakes it. The peer is a second process (this test binary
// re-executed, serving the socket it inherits) that holds each datagram for
// idleSpell, so this process is idle between a send and its reply. Each op
// then pays one wakeup from idle plus the syscalls around it, and the per-op
// CPU and context switches (this process only, from getrusage) show what the
// scheduler does around those syscalls; ns/op is mostly idleSpell. Run it
// with one P:
//
//	GOMAXPROCS=1 go test -run '^$' -bench LoopbackPingPong ./internal/netbatch/
func BenchmarkLoopbackPingPong(b *testing.B) {
	ca, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	defer ca.Close()
	ce, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	dst := ce.LocalAddr().(*net.UDPAddr).AddrPort()
	f, err := ce.File()
	ce.Close()
	if err != nil {
		b.Fatal(err)
	}
	peer := exec.Command(os.Args[0], "-test.run=^TestPingPongEchoPeer$")
	peer.Env = append(os.Environ(), echoEnv+"=1")
	peer.ExtraFiles = []*os.File{f}
	peer.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := peer.Start(); err != nil {
		b.Fatal(err)
	}
	f.Close()
	defer func() {
		peer.Process.Kill()
		peer.Wait()
	}()

	client := New(ca, Options{})
	out := []Msg{{Buf: []byte("ping"), Addr: dst}}
	in := []Msg{{Buf: make([]byte, 64)}}
	var r0, r1 syscall.Rusage
	b.ResetTimer()
	syscall.Getrusage(syscall.RUSAGE_SELF, &r0)
	for i := 0; i < b.N; i++ {
		if _, err := client.WriteBatch(out); err != nil {
			b.Fatal(err)
		}
		if _, err := client.ReadBatch(in); err != nil {
			b.Fatal(err)
		}
	}
	syscall.Getrusage(syscall.RUSAGE_SELF, &r1)
	b.StopTimer()
	cpu := r1.Utime.Nano() + r1.Stime.Nano() - r0.Utime.Nano() - r0.Stime.Nano()
	ctxsw := r1.Nvcsw + r1.Nivcsw - r0.Nvcsw - r0.Nivcsw
	b.ReportMetric(float64(cpu)/float64(b.N), "cpu-ns/op")
	b.ReportMetric(float64(ctxsw)/float64(b.N), "ctxsw/op")
}

// TestPingPongEchoPeer is BenchmarkLoopbackPingPong's echo peer: it runs only
// in the re-executed binary and echoes every datagram on the inherited
// socket (fd 3) back to its sender, idleSpell later, until killed.
func TestPingPongEchoPeer(t *testing.T) {
	if os.Getenv(echoEnv) == "" {
		t.Skip("echo peer for BenchmarkLoopbackPingPong; runs only when the benchmark starts it")
	}
	pc, err := net.FilePacketConn(os.NewFile(3, "echo"))
	if err != nil {
		t.Fatal(err)
	}
	echo := New(pc.(*net.UDPConn), Options{})
	in := []Msg{{Buf: make([]byte, 64)}}
	out := []Msg{{}}
	for {
		if _, err := echo.ReadBatch(in); err != nil {
			t.Fatal(err)
		}
		out[0].Buf, out[0].Addr = in[0].Buf[:in[0].N], in[0].Addr
		for start := time.Now(); time.Since(start) < idleSpell; {
		}
		if _, err := echo.WriteBatch(out); err != nil {
			t.Fatal(err)
		}
	}
}
