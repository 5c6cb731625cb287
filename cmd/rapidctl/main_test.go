package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rapidware/internal/compose"
	"rapidware/internal/control"
	"rapidware/internal/engine"
	"rapidware/internal/filter"
	"rapidware/internal/metrics"
	"rapidware/internal/packet"
)

// startTestServer brings up a control server serving a stream chain (plan
// "counting") as session 1, the way rapidproxy -mode stream does, and
// returns its address. No data moves, so the plan's executor is a bare
// FrameChain.
func startTestServer(t *testing.T) string {
	t.Helper()
	plan, err := compose.Parse("counting", compose.ModeChain)
	if err != nil {
		t.Fatal(err)
	}
	live, err := compose.Attach(filter.NewFrameChain((*packet.Buf).Release), compose.Default(), compose.Env{StreamID: 1}, compose.ModeChain, plan)
	if err != nil {
		t.Fatal(err)
	}
	s := control.NewServer(nil)
	s.SetSessionSource(compose.NewStreamSession(live))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return addr
}

// captureOutput runs fn with stdout-like capture through a temp file.
func captureOutput(t *testing.T, fn func(out *os.File) error) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	if err := fn(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestStatusKindsPing: a stream proxy's status is its one session's row,
// plan and per-stage view.
func TestStatusKindsPing(t *testing.T) {
	addr := startTestServer(t)
	out := captureOutput(t, func(f *os.File) error {
		return run([]string{"-addr", addr, "sessions"}, f)
	})
	if !strings.Contains(out, "\n1 ") || !strings.Contains(out, "chain counting") || !strings.Contains(out, "[0] counting") {
		t.Fatalf("sessions output:\n%s", out)
	}
	out = captureOutput(t, func(f *os.File) error {
		return run([]string{"-addr", addr, "kinds"}, f)
	})
	if !strings.Contains(out, "null") || !strings.Contains(out, "fec-encode") {
		t.Fatalf("kinds output:\n%s", out)
	}
	out = captureOutput(t, func(f *os.File) error {
		return run([]string{"-addr", addr, "ping"}, f)
	})
	if out != "ok\n" {
		t.Fatalf("ping output:\n%s", out)
	}
}

func TestInsertMoveRemoveFlow(t *testing.T) {
	addr := startTestServer(t)
	for _, step := range []struct {
		args []string
		want string
	}{
		{[]string{"insert", "checksum", "0"}, "session 1 chain: checksum,counting\n"},
		{[]string{"move", "0", "1"}, "session 1 chain: counting,checksum\n"},
		{[]string{"remove", "checksum"}, "session 1 chain: counting\n"}, // by kind
		{[]string{"remove", "0"}, "session 1 chain: (pure relay)\n"},    // by position
	} {
		out := captureOutput(t, func(f *os.File) error {
			return run(append([]string{"-addr", addr, "-session", "1"}, step.args...), f)
		})
		if out != step.want {
			t.Fatalf("%v output %q, want %q", step.args, out, step.want)
		}
	}
}

func TestPrintSessionsSortsByID(t *testing.T) {
	// Session order from the server is not guaranteed; the printout must be
	// deterministic so scripts can diff it.
	out := captureOutput(t, func(f *os.File) error {
		printSessions(f, []metrics.SessionStats{
			{ID: 30, Packets: 3},
			{ID: 10, Packets: 1},
			{ID: 20, Packets: 2},
		})
		return nil
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("output:\n%s", out)
	}
	for i, want := range []string{"10", "20", "30"} {
		if !strings.HasPrefix(lines[i+1], want) {
			t.Fatalf("line %d = %q, want session %s first", i+1, lines[i+1], want)
		}
	}
	if strings.Contains(lines[0], "fec") {
		t.Fatal("adaptation columns printed for non-adaptive sessions")
	}
}

func TestPrintSessionsAdaptColumns(t *testing.T) {
	out := captureOutput(t, func(f *os.File) error {
		printSessions(f, []metrics.SessionStats{
			{ID: 2, Adapt: &metrics.AdaptStats{K: 1, N: 1, Reports: 1}},
			{ID: 1, Adapt: &metrics.AdaptStats{K: 4, N: 8, Active: true, LossRate: 0.1, Reports: 5, Retunes: 2}},
		})
		return nil
	})
	if !strings.Contains(out, "fec") || !strings.Contains(out, "retunes") {
		t.Fatalf("missing adaptation header:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.Contains(lines[1], "8/4") || !strings.Contains(lines[1], "0.1000") {
		t.Fatalf("session 1 row %q missing 8/4 / 0.1000", lines[1])
	}
	// The no-FEC session renders a dash, not 1/1.
	if !strings.Contains(lines[2], " - ") {
		t.Fatalf("session 2 row %q should render fec as -", lines[2])
	}
}

// TestPrintSessionsCohortColumn pins the cohorts column: it appears only when
// some session reports delivery cohorts, counts them for fan-out sessions and
// renders a dash for unicast ones.
func TestPrintSessionsCohortColumn(t *testing.T) {
	out := captureOutput(t, func(f *os.File) error {
		printSessions(f, []metrics.SessionStats{
			{ID: 1, Packets: 4},
			{ID: 2, Packets: 9, Cohorts: 3},
		})
		return nil
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.Contains(lines[0], "cohorts") {
		t.Fatalf("header %q missing cohorts column", lines[0])
	}
	if !strings.HasSuffix(strings.TrimRight(lines[1], " "), "-") {
		t.Fatalf("unicast row %q should render cohorts as -", lines[1])
	}
	if !strings.HasSuffix(strings.TrimRight(lines[2], " "), "3") {
		t.Fatalf("fan-out row %q should render 3 cohorts", lines[2])
	}

	// Without any cohorted session the column stays out of the table.
	out = captureOutput(t, func(f *os.File) error {
		printSessions(f, []metrics.SessionStats{{ID: 1, Packets: 4}})
		return nil
	})
	if strings.Contains(out, "cohorts") {
		t.Fatalf("cohorts column printed for cohort-free sessions:\n%s", out)
	}
}

// TestPrintSessionsParkedColumns pins the state/idle columns: a parked
// session renders "parked" with its idle age, a live one renders "live", and
// a session the engine has no idle clock for renders a dash.
func TestPrintSessionsParkedColumns(t *testing.T) {
	out := captureOutput(t, func(f *os.File) error {
		printSessions(f, []metrics.SessionStats{
			{ID: 1, Packets: 4},
			{ID: 2, Packets: 9, Parked: true, IdleForMs: 1500, Chain: "counting"},
			{ID: 3, Packets: 1, IdleForMs: 20},
		})
		return nil
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header + three rows + parked session's chain line
		t.Fatalf("output:\n%s", out)
	}
	if !strings.Contains(lines[0], "state") || !strings.Contains(lines[0], "idle") {
		t.Fatalf("header %q missing state/idle columns", lines[0])
	}
	if !strings.Contains(lines[1], "live") || !strings.Contains(lines[1], "-") {
		t.Fatalf("live row %q", lines[1])
	}
	if !strings.Contains(lines[2], "parked") || !strings.Contains(lines[2], "1500ms") {
		t.Fatalf("parked row %q", lines[2])
	}
	// A parked session's chain column still renders — it is the retained plan.
	if !strings.Contains(lines[3], "chain counting") {
		t.Fatalf("parked chain line %q", lines[3])
	}
	if !strings.Contains(lines[4], "live") || !strings.Contains(lines[4], "20ms") {
		t.Fatalf("idle live row %q", lines[4])
	}
}

func TestPrintSessionsReceiverRows(t *testing.T) {
	out := captureOutput(t, func(f *os.File) error {
		printSessions(f, []metrics.SessionStats{
			{
				ID:    7,
				Adapt: &metrics.AdaptStats{K: 4, N: 8, Active: true, LossRate: 0.1, Reports: 3},
				Receivers: []metrics.ReceiverStats{
					{Receiver: "127.0.0.1:9000", OutPackets: 12, OutBytes: 480, K: 1, N: 1},
					{Receiver: "127.0.0.1:9001", OutPackets: 20, OutBytes: 800, K: 4, N: 8, Active: true,
						LossRate: 0.1, Reports: 3, Retunes: 1, Stages: []string{"thin:7"}},
				},
			},
		})
		return nil
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + session + two receiver rows
		t.Fatalf("output:\n%s", out)
	}
	if !strings.Contains(lines[2], "-> 127.0.0.1:9000") || !strings.Contains(lines[2], "fec -") {
		t.Fatalf("clean receiver row %q", lines[2])
	}
	if !strings.Contains(lines[3], "-> 127.0.0.1:9001") || !strings.Contains(lines[3], "fec 8/4") ||
		!strings.Contains(lines[3], "stages thin:7") {
		t.Fatalf("lossy receiver row %q", lines[3])
	}
}

// startEngineServer brings up a control server fronting a real sharded
// engine and returns the control address.
func startEngineServer(t *testing.T) string {
	t.Helper()
	eng, err := engine.New(engine.Config{ListenAddr: "127.0.0.1:0", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	s := control.NewServer(nil)
	s.SetSessionSource(eng)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return addr
}

func TestStatsCommand(t *testing.T) {
	addr := startEngineServer(t)
	out := captureOutput(t, func(f *os.File) error {
		return run([]string{"-addr", addr, "stats"}, f)
	})
	if !strings.Contains(out, "shards 2") || !strings.Contains(out, "write-drops") {
		t.Fatalf("stats output:\n%s", out)
	}
	// Both rows of the per-shard table must render.
	if !strings.Contains(out, "\n0 ") || !strings.Contains(out, "\n1 ") {
		t.Fatalf("stats output missing shard rows:\n%s", out)
	}
}

func TestStatsCommandJSON(t *testing.T) {
	addr := startEngineServer(t)
	// The flag is accepted both before and after the command.
	for _, args := range [][]string{
		{"-addr", addr, "stats", "-json"},
		{"-addr", addr, "-json", "stats"},
	} {
		out := captureOutput(t, func(f *os.File) error {
			return run(args, f)
		})
		var parsed struct {
			Engine *metrics.EngineStats `json:"engine"`
			Shards []metrics.ShardStats `json:"shards"`
		}
		if err := json.Unmarshal([]byte(out), &parsed); err != nil {
			t.Fatalf("args %v: not JSON: %v\n%s", args, err, out)
		}
		if parsed.Engine == nil || parsed.Engine.Shards != 2 || len(parsed.Shards) != 2 {
			t.Fatalf("args %v: parsed stats = %+v", args, parsed)
		}
	}
}

func TestSessionsCommandJSON(t *testing.T) {
	addr := startEngineServer(t)
	// The flag is accepted both before and after the command, like stats.
	for _, args := range [][]string{
		{"-addr", addr, "sessions", "-json"},
		{"-addr", addr, "-json", "sessions"},
	} {
		out := captureOutput(t, func(f *os.File) error {
			return run(args, f)
		})
		var parsed struct {
			Sessions []metrics.SessionStats `json:"sessions"`
		}
		if err := json.Unmarshal([]byte(out), &parsed); err != nil {
			t.Fatalf("args %v: not JSON: %v\n%s", args, err, out)
		}
		if parsed.Sessions == nil || len(parsed.Sessions) != 0 {
			t.Fatalf("args %v: sessions = %#v, want empty (non-null) list", args, parsed.Sessions)
		}
	}
	// The table renderer still answers without the flag.
	out := captureOutput(t, func(f *os.File) error {
		return run([]string{"-addr", addr, "sessions"}, f)
	})
	if !strings.Contains(out, "no live sessions") {
		t.Fatalf("sessions table output:\n%s", out)
	}
}

func TestPrintSessionsJSONRoundTrip(t *testing.T) {
	out := captureOutput(t, func(f *os.File) error {
		return printSessionsJSON(f, []metrics.SessionStats{
			{ID: 20, Packets: 2},
			{ID: 10, Packets: 1, Receivers: []metrics.ReceiverStats{
				{Receiver: "127.0.0.1:9001", OutPackets: 5, K: 4, N: 8, Active: true},
			}},
		})
	})
	var parsed struct {
		Sessions []metrics.SessionStats `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	if len(parsed.Sessions) != 2 || parsed.Sessions[0].ID != 10 || parsed.Sessions[1].ID != 20 {
		t.Fatalf("sessions not sorted by ID: %+v", parsed.Sessions)
	}
	rx := parsed.Sessions[0].Receivers
	if len(rx) != 1 || rx[0].Receiver != "127.0.0.1:9001" || rx[0].N != 8 || !rx[0].Active {
		t.Fatalf("receiver breakdown lost in JSON: %+v", rx)
	}
}

func TestUsageErrors(t *testing.T) {
	addr := startTestServer(t)
	cases := [][]string{
		{"-addr", addr}, // missing command
		{"-addr", addr, "definitely-not-a-command"},             // unknown command
		{"-addr", addr, "status"},                               // removed: use sessions
		{"-addr", addr, "upload", "null"},                       // removed: use -session insert
		{"-addr", addr, "insert", "null", "0"},                  // no -session
		{"-addr", addr, "remove", "0"},                          // no -session
		{"-addr", addr, "move", "0", "1"},                       // no -session
		{"-addr", addr, "-session", "x", "remove", "0"},         // bad session ID
		{"-addr", addr, "-session", "1", "insert", "null"},      // missing position
		{"-addr", addr, "-session", "1", "insert", "null", "x"}, // bad position
		{"-addr", addr, "-session", "1", "remove"},              // missing operand
		{"-addr", addr, "-session", "1", "move", "1"},           // missing target
		{"-addr", addr, "-session", "1", "move", "a", "b"},      // non-numeric
		{"-addr", addr, "-proxy", "edge", "sessions"},           // removed flag
	}
	for _, args := range cases {
		if err := run(args, os.Stdout); err == nil {
			t.Fatalf("args %v: expected an error", args)
		}
	}
}

func TestDialError(t *testing.T) {
	if err := run([]string{"-addr", "127.0.0.1:1", "-timeout", "50ms", "ping"}, os.Stdout); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestServerSideErrorPropagates(t *testing.T) {
	addr := startTestServer(t)
	if err := run([]string{"-addr", addr, "-session", "1", "insert", "not-a-kind", "0"}, os.Stdout); err == nil {
		t.Fatal("expected error for unknown filter kind")
	}
}

// startComposableEngine brings up an engine with a trunk chain, opens one
// live session (ID 7) by relaying a datagram through it, and returns the
// control address.
func startComposableEngine(t *testing.T, chain string) string {
	t.Helper()
	eng, err := engine.New(engine.Config{ListenAddr: "127.0.0.1:0", Shards: 1, Chain: chain})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })

	conn, err := net.DialUDP("udp", nil, eng.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	dgram, err := packet.AppendDatagram(nil, 7, &packet.Packet{Seq: 1, Kind: packet.KindData, Payload: []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(dgram); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, packet.MaxDatagram)
	if _, err := conn.Read(buf); err != nil {
		t.Fatalf("echo never arrived: %v", err)
	}

	s := control.NewServer(nil)
	s.SetSessionSource(eng)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return addr
}

func TestComposeCommandFlow(t *testing.T) {
	addr := startComposableEngine(t, "counting")

	// The sessions table shows the trunk plan and its per-stage view.
	out := captureOutput(t, func(f *os.File) error {
		return run([]string{"-addr", addr, "sessions"}, f)
	})
	if !strings.Contains(out, "chain counting") || !strings.Contains(out, "[0] counting") ||
		!strings.Contains(out, "counting:7") || !strings.Contains(out, "active") {
		t.Fatalf("sessions table missing the per-stage view:\n%s", out)
	}

	// Full recompose via the compose command.
	out = captureOutput(t, func(f *os.File) error {
		return run([]string{"-addr", addr, "compose", "7", "counting,checksum"}, f)
	})
	if !strings.Contains(out, "session 7 chain: counting,checksum") {
		t.Fatalf("compose output:\n%s", out)
	}

	// Single-stage session operations.
	out = captureOutput(t, func(f *os.File) error {
		return run([]string{"-addr", addr, "-session", "7", "insert", "delay=1ms", "2"}, f)
	})
	if !strings.Contains(out, "counting,checksum,delay=1ms") {
		t.Fatalf("session insert output:\n%s", out)
	}
	out = captureOutput(t, func(f *os.File) error {
		return run([]string{"-addr", addr, "-session", "7", "move", "2", "0"}, f)
	})
	if !strings.Contains(out, "delay=1ms,counting,checksum") {
		t.Fatalf("session move output:\n%s", out)
	}
	out = captureOutput(t, func(f *os.File) error {
		return run([]string{"-addr", addr, "-session", "7", "remove", "delay"}, f)
	})
	if !strings.Contains(out, "session 7 chain: counting,checksum") {
		t.Fatalf("session remove output:\n%s", out)
	}
	out = captureOutput(t, func(f *os.File) error {
		return run([]string{"-addr", addr, "-session", "7", "remove", "1"}, f)
	})
	if !strings.Contains(out, "session 7 chain: counting\n") {
		t.Fatalf("remove-by-position output:\n%s", out)
	}

	// Recompose to a pure relay renders a placeholder.
	out = captureOutput(t, func(f *os.File) error {
		return run([]string{"-addr", addr, "compose", "7", ""}, f)
	})
	if !strings.Contains(out, "session 7 chain: (pure relay)") {
		t.Fatalf("pure-relay compose output:\n%s", out)
	}

	// kinds answers from the engine's compose registry.
	out = captureOutput(t, func(f *os.File) error {
		return run([]string{"-addr", addr, "kinds"}, f)
	})
	for _, want := range []string{"counting", "fec-adapt", "fec-encode", "thin", "transcode"} {
		if !strings.Contains(out, want) {
			t.Fatalf("kinds output missing %q:\n%s", want, out)
		}
	}

	// Errors propagate: unknown session, unknown branch, bad stage.
	for _, args := range [][]string{
		{"-addr", addr, "compose", "404", "counting"},
		{"-addr", addr, "compose", "7", "-branch", "10.0.0.1:9", "counting"},
		{"-addr", addr, "-session", "7", "insert", "bogus", "0"},
		{"-addr", addr, "compose", "7", "fec-adapt"}, // marker on a non-adaptive trunk
		{"-addr", addr, "compose"},                   // missing args
		{"-addr", addr, "compose", "x", "counting"},  // bad session ID
	} {
		if err := run(args, os.Stdout); err == nil {
			t.Fatalf("args %v: expected an error", args)
		}
	}
}

func TestSessionsJSONCarriesChain(t *testing.T) {
	addr := startComposableEngine(t, "counting,checksum")
	out := captureOutput(t, func(f *os.File) error {
		return run([]string{"-addr", addr, "sessions", "-json"}, f)
	})
	var parsed struct {
		Sessions []metrics.SessionStats `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	if len(parsed.Sessions) != 1 {
		t.Fatalf("sessions = %+v", parsed.Sessions)
	}
	s := parsed.Sessions[0]
	if s.Chain != "counting,checksum" {
		t.Fatalf("chain field = %q", s.Chain)
	}
	if len(s.Stages) != 2 || s.Stages[0].Kind != "counting" || s.Stages[0].Name != "counting:7" ||
		!s.Stages[0].Active || s.Stages[1].Spec != "checksum" {
		t.Fatalf("stages field = %+v", s.Stages)
	}
	if s.Stages[0].InBytes == 0 || s.Stages[0].OutBytes == 0 {
		t.Fatalf("per-stage counters never moved: %+v", s.Stages[0])
	}
}

func TestPrintSessionsReceiverChain(t *testing.T) {
	out := captureOutput(t, func(f *os.File) error {
		printSessions(f, []metrics.SessionStats{
			{
				ID:    7,
				Chain: "counting",
				Adapt: &metrics.AdaptStats{K: 4, N: 8, Active: true},
				Receivers: []metrics.ReceiverStats{
					{Receiver: "127.0.0.1:9001", Chain: "fec-adapt,thin=2", Stages: []string{"thin:7"}},
				},
			},
		})
		return nil
	})
	if !strings.Contains(out, "chain counting") {
		t.Fatalf("trunk chain missing:\n%s", out)
	}
	if !strings.Contains(out, "tail fec-adapt,thin=2") {
		t.Fatalf("branch tail plan missing:\n%s", out)
	}
}

// TestPrintStatsGolden pins the exact stats rendering — the syscalls,
// batch-fill, gso and datagrams-per-entry figures included — so accidental
// format drift is caught.
func TestPrintStatsGolden(t *testing.T) {
	eng := &metrics.EngineStats{
		ActiveSessions: 3, LiveSessions: 2, ParkedSessions: 1, TotalSessions: 5, Shards: 2,
		Datagrams: 6400, Malformed: 1, Rejected: 2, Feedback: 3, Nacks: 4,
		Retransmits: 5, ChainErrors: 6,
		Parks: 9, Unparks: 8, Harvested: 1, AdmissionDrops: 2,
		BatchedWrites: 6400, WriteFlushes: 400, WriteDrops: 7,
		RecvCalls: 200, SendCalls: 200, GSODatagrams: 5200,
		SentDatagrams: 6400, SendEntries: 500,
		BypassHits: 11, CoalescedSends: 12,
	}
	shards := []metrics.ShardStats{
		{Shard: 0, Sessions: 2, Parked: 1, Datagrams: 3200, Malformed: 1, Rejected: 2,
			Feedback: 3, Nacks: 4, Retransmits: 5, ChainErrors: 6,
			Writes: 3200, Flushes: 200, WriteDrops: 7, Harvested: 1, AdmissionDrops: 2,
			BypassHits: 11, CoalescedSends: 12,
			RecvCalls: 100, SendCalls: 100},
		{Shard: 1, Sessions: 1, Datagrams: 3200,
			Writes: 3200, Flushes: 200, RecvCalls: 100, SendCalls: 100},
		{Shard: 2},
	}
	out := captureOutput(t, func(f *os.File) error {
		printStats(f, eng, shards)
		return nil
	})
	want := `engine: sessions 3 (2 live, 1 parked; total 5), shards 2
datagrams 6400  malformed 1  rejected 2  feedback 3  nacks 4  retransmits 5  chain-errors 6
parks 9  unparks 8  harvested 1  admission-drops 2
writes 6400 in 400 flushes (16.0/flush)  write-drops 7
bypass-hits 11  coalesced-sends 12
syscalls 400 (recv 200, send 200)  per-packet 0.031  batch-fill 32.0  gso 5200  per-entry 12.8
shard sessions parked  datagrams malformed rejected feedback  nacks rexmits chain-errs     writes  flushes  wdrops harvest adrops  bypass  coalsc  syscalls batch-fill
0            2      1       3200         1        2        3      4       5          6       3200      200       7       1      2      11      12       200       32.0
1            1      0       3200         0        0        0      0       0          0       3200      200       0       0      0       0       0       200       32.0
2            0      0          0         0        0        0      0       0          0          0        0       0       0      0       0       0         0          -
`
	if out != want {
		t.Fatalf("stats output drifted:\ngot:\n%s\nwant:\n%s", out, want)
	}
}
