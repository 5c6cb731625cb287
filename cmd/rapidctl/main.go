// Command rapidctl is the ControlManager command-line client: it connects to
// a rapidproxy's control port and queries or reconfigures its sessions'
// filter chains. A stream-mode rapidproxy serves its one stream as session 1.
//
// Usage:
//
//	rapidctl -addr host:7100 sessions [-json]
//	rapidctl -addr host:7100 stats [-json]
//	rapidctl -addr host:7100 kinds
//	rapidctl -addr host:7100 ping
//
// Live sessions are recomposed while they carry traffic. The compose command
// rewrites a session's whole chain to a target spec (the canonical current
// spec is shown by "sessions"); with -branch it rewrites the delivery-branch
// tail serving one fan-out receiver instead:
//
//	rapidctl -addr host:7100 compose <session> [-branch <receiver>] '<spec>'
//
// The single-stage operations require a -session (and take an optional
// -branch) flag, and address plan positions (0 = first interior stage) and
// stage specs:
//
//	rapidctl -addr host:7100 -session 7 insert <stage-spec> <position>
//	rapidctl -addr host:7100 -session 7 remove <position|kind>
//	rapidctl -addr host:7100 -session 7 move <from> <to>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"rapidware/internal/control"
	"rapidware/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatalf("rapidctl: %v", err)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("rapidctl", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:7100", "control address of the proxy")
		timeout = fs.Duration("timeout", 3*time.Second, "dial timeout")
		asJSON  = fs.Bool("json", false, "sessions/stats: emit machine-readable JSON instead of the table")
		session = fs.String("session", "", "insert/remove/move (required): act on this live session's chain")
		branch  = fs.String("branch", "", "with -session (or compose): act on the delivery branch serving this receiver address")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing command (sessions|stats|kinds|compose|insert|remove|move|ping)")
	}
	// Accept the flag after the command too ("rapidctl stats -json"), the
	// order scripts naturally write. Scoped to the commands that honor it so
	// other commands' positional arguments can never be mistaken for it.
	if rest[0] == "stats" || rest[0] == "sessions" {
		for _, arg := range rest[1:] {
			if arg == "-json" || arg == "--json" {
				*asJSON = true
			}
		}
	}

	var id uint32
	switch rest[0] {
	case "insert", "remove", "move":
		if *session == "" {
			return fmt.Errorf("%s needs -session <id> (a stream-mode proxy serves session 1)", rest[0])
		}
		var err error
		if id, err = parseSessionID(*session); err != nil {
			return err
		}
	}

	client, err := control.Dial(*addr, *timeout)
	if err != nil {
		return err
	}
	defer client.Close()

	switch rest[0] {
	case "ping":
		if err := client.Ping(); err != nil {
			return err
		}
		fmt.Fprintln(out, "ok")
	case "sessions":
		stats, err := client.Sessions()
		if err != nil {
			return err
		}
		if *asJSON {
			return printSessionsJSON(out, stats)
		}
		printSessions(out, stats)
	case "stats":
		eng, shards, err := client.Stats()
		if err != nil {
			return err
		}
		if *asJSON {
			return printStatsJSON(out, eng, shards)
		}
		printStats(out, eng, shards)
	case "kinds":
		kinds, err := client.Kinds()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, strings.Join(kinds, "\n"))
	case "compose":
		// compose <session> [-branch <receiver>] '<spec>'
		id, receiver, spec, err := parseComposeArgs(rest[1:], *branch)
		if err != nil {
			return err
		}
		chain, err := client.Compose(id, receiver, spec)
		if err != nil {
			return err
		}
		printChain(out, id, receiver, chain)
	case "insert":
		if len(rest) != 3 {
			return fmt.Errorf("usage: -session <id> insert <stage-spec> <position>")
		}
		pos, err := strconv.Atoi(rest[2])
		if err != nil {
			return fmt.Errorf("invalid position %q: %w", rest[2], err)
		}
		chain, err := client.SessionInsert(id, *branch, rest[1], pos)
		if err != nil {
			return err
		}
		printChain(out, id, *branch, chain)
	case "remove":
		if len(rest) != 2 {
			return fmt.Errorf("usage: -session <id> remove <position|kind>")
		}
		chain, err := client.SessionRemove(id, *branch, rest[1])
		if err != nil {
			return err
		}
		printChain(out, id, *branch, chain)
	case "move":
		if len(rest) != 3 {
			return fmt.Errorf("usage: -session <id> move <from> <to>")
		}
		from, err1 := strconv.Atoi(rest[1])
		to, err2 := strconv.Atoi(rest[2])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("move positions must be integers")
		}
		chain, err := client.SessionMove(id, *branch, from, to)
		if err != nil {
			return err
		}
		printChain(out, id, *branch, chain)
	default:
		return fmt.Errorf("unknown command %q", rest[0])
	}
	return nil
}

// parseSessionID parses a decimal session ID.
func parseSessionID(s string) (uint32, error) {
	id, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("invalid session ID %q: %w", s, err)
	}
	return uint32(id), nil
}

// parseComposeArgs parses "compose <session> [-branch <receiver>] '<spec>'".
// A -branch passed before the command (the global flag) is honored too.
func parseComposeArgs(args []string, globalBranch string) (id uint32, receiver, spec string, err error) {
	receiver = globalBranch
	var positional []string
	for i := 0; i < len(args); i++ {
		if args[i] == "-branch" || args[i] == "--branch" {
			if i+1 >= len(args) {
				return 0, "", "", fmt.Errorf("-branch needs a receiver address")
			}
			receiver = args[i+1]
			i++
			continue
		}
		positional = append(positional, args[i])
	}
	if len(positional) != 2 {
		return 0, "", "", fmt.Errorf("usage: compose <session> [-branch <receiver>] '<spec>'")
	}
	id, err = parseSessionID(positional[0])
	if err != nil {
		return 0, "", "", err
	}
	return id, receiver, positional[1], nil
}

// printChain reports the canonical plan a session-scoped operation left
// behind.
func printChain(out *os.File, id uint32, receiver, chain string) {
	target := fmt.Sprintf("session %d", id)
	if receiver != "" {
		target += " branch " + receiver
	}
	if chain == "" {
		chain = "(pure relay)"
	}
	fmt.Fprintf(out, "%s chain: %s\n", target, chain)
}

// printStats renders the engine-level aggregate and the per-shard breakdown.
func printStats(out *os.File, eng *metrics.EngineStats, shards []metrics.ShardStats) {
	if eng == nil {
		fmt.Fprintln(out, "no engine stats")
		return
	}
	fmt.Fprintf(out, "engine: sessions %d (%d live, %d parked; total %d), shards %d\n",
		eng.ActiveSessions, eng.LiveSessions, eng.ParkedSessions, eng.TotalSessions, eng.Shards)
	fmt.Fprintf(out, "datagrams %d  malformed %d  rejected %d  feedback %d  nacks %d  retransmits %d  chain-errors %d\n",
		eng.Datagrams, eng.Malformed, eng.Rejected, eng.Feedback, eng.Nacks, eng.Retransmits, eng.ChainErrors)
	fmt.Fprintf(out, "parks %d  unparks %d  harvested %d  admission-drops %d\n",
		eng.Parks, eng.Unparks, eng.Harvested, eng.AdmissionDrops)
	perFlush := 0.0
	if eng.WriteFlushes > 0 {
		perFlush = float64(eng.BatchedWrites) / float64(eng.WriteFlushes)
	}
	fmt.Fprintf(out, "writes %d in %d flushes (%.1f/flush)  write-drops %d\n",
		eng.BatchedWrites, eng.WriteFlushes, perFlush, eng.WriteDrops)
	fmt.Fprintf(out, "bypass-hits %d  coalesced-sends %d\n", eng.BypassHits, eng.CoalescedSends)
	fmt.Fprintf(out, "syscalls %d (recv %d, send %d)  per-packet %s  batch-fill %s  gso %d  per-entry %s\n",
		eng.RecvCalls+eng.SendCalls, eng.RecvCalls, eng.SendCalls,
		perPacket(eng.Datagrams+eng.BatchedWrites, eng.RecvCalls+eng.SendCalls),
		fillRatio(eng.Datagrams+eng.BatchedWrites, eng.RecvCalls+eng.SendCalls),
		eng.GSODatagrams, fillRatio(eng.SentDatagrams, eng.SendEntries))
	fmt.Fprintf(out, "%-5s %8s %6s %10s %9s %8s %8s %6s %7s %10s %10s %8s %7s %7s %6s %7s %7s %9s %10s\n",
		"shard", "sessions", "parked", "datagrams", "malformed", "rejected", "feedback", "nacks", "rexmits", "chain-errs", "writes", "flushes", "wdrops", "harvest", "adrops", "bypass", "coalsc", "syscalls", "batch-fill")
	for _, sh := range shards {
		fmt.Fprintf(out, "%-5d %8d %6d %10d %9d %8d %8d %6d %7d %10d %10d %8d %7d %7d %6d %7d %7d %9d %10s\n",
			sh.Shard, sh.Sessions, sh.Parked, sh.Datagrams, sh.Malformed, sh.Rejected, sh.Feedback,
			sh.Nacks, sh.Retransmits, sh.ChainErrors, sh.Writes, sh.Flushes, sh.WriteDrops,
			sh.Harvested, sh.AdmissionDrops, sh.BypassHits, sh.CoalescedSends,
			sh.RecvCalls+sh.SendCalls, fillRatio(sh.Datagrams+sh.Writes, sh.RecvCalls+sh.SendCalls))
	}
}

// fillRatio renders packets per call: per syscall (the batch amortization
// actually achieved; BatchSize is the ceiling), or per kernel send entry (the
// GSO amortization). A plane that has not moved traffic yet renders a dash
// rather than a division by zero.
func fillRatio(packets, calls uint64) string {
	if calls == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(packets)/float64(calls))
}

// perPacket renders syscalls-per-packet, the inverse of fillRatio (0.03 means
// one syscall carries ~32 datagrams; 1.0 means no batching).
func perPacket(packets, calls uint64) string {
	if packets == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", float64(calls)/float64(packets))
}

// printStatsJSON emits the same snapshot as one JSON object, for scripts.
func printStatsJSON(out *os.File, eng *metrics.EngineStats, shards []metrics.ShardStats) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Engine *metrics.EngineStats `json:"engine"`
		Shards []metrics.ShardStats `json:"shards"`
	}{eng, shards})
}

// printSessionsJSON emits the per-session (and per-receiver) snapshot as one
// JSON object, for scripts — parity with "stats -json". Sessions are sorted
// by ID like the table.
func printSessionsJSON(out *os.File, stats []metrics.SessionStats) error {
	stats = append([]metrics.SessionStats(nil), stats...)
	sort.Slice(stats, func(i, j int) bool { return stats[i].ID < stats[j].ID })
	if stats == nil {
		stats = []metrics.SessionStats{} // "sessions": [] rather than null
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Sessions []metrics.SessionStats `json:"sessions"`
	}{stats})
}

func printSessions(out *os.File, stats []metrics.SessionStats) {
	if len(stats) == 0 {
		fmt.Fprintln(out, "no live sessions")
		return
	}
	// Sort by session ID locally rather than trusting server order, so the
	// output is deterministic and scripts can diff it.
	stats = append([]metrics.SessionStats(nil), stats...)
	sort.Slice(stats, func(i, j int) bool { return stats[i].ID < stats[j].ID })
	adaptive, cohorted := false, false
	for _, s := range stats {
		if s.Adapt != nil {
			adaptive = true
		}
		if s.Cohorts > 0 {
			cohorted = true
		}
	}
	fmt.Fprintf(out, "%-10s %5s %6s %8s %10s %12s %10s %12s %8s %8s",
		"session", "shard", "state", "idle", "pkts", "bytes", "out-pkts", "out-bytes", "repairs", "drops")
	if cohorted {
		fmt.Fprintf(out, " %7s", "cohorts")
	}
	if adaptive {
		fmt.Fprintf(out, " %5s %6s %7s %8s %8s", "mech", "fec", "loss", "reports", "retunes")
	}
	fmt.Fprintln(out)
	for _, s := range stats {
		state := "live"
		if s.Parked {
			state = "parked"
		}
		idle := "-"
		if s.IdleForMs > 0 {
			idle = fmt.Sprintf("%dms", s.IdleForMs)
		}
		fmt.Fprintf(out, "%-10d %5d %6s %8s %10d %12d %10d %12d %8d %8d",
			s.ID, s.Shard, state, idle, s.Packets, s.Bytes, s.OutPackets, s.OutBytes, s.Repairs, s.Drops)
		if cohorted {
			cohorts := "-"
			if s.Cohorts > 0 {
				cohorts = strconv.Itoa(s.Cohorts)
			}
			fmt.Fprintf(out, " %7s", cohorts)
		}
		if adaptive {
			mech, fec, loss := "-", "-", "-"
			var reports, retunes uint64
			if a := s.Adapt; a != nil {
				if a.Mechanism != "" {
					mech = a.Mechanism
				}
				if a.N > a.K {
					fec = fmt.Sprintf("%d/%d", a.N, a.K)
				}
				loss = fmt.Sprintf("%.4f", a.LossRate)
				reports, retunes = a.Reports, a.Retunes
			}
			fmt.Fprintf(out, " %5s %6s %7s %8d %8d", mech, fec, loss, reports, retunes)
		}
		fmt.Fprintln(out)
		// The trunk's composition: the canonical plan (the string compose
		// accepts back) and one row per stage with its live instance and
		// per-stage traffic.
		if s.Chain != "" || len(s.Stages) > 0 {
			chain := s.Chain
			if chain == "" {
				chain = "(pure relay)"
			}
			fmt.Fprintf(out, "  chain %s\n", chain)
		}
		for i, st := range s.Stages {
			name := st.Name
			if name == "" {
				name = "(idle)"
			}
			state := "active"
			if !st.Active {
				state = "idle"
			}
			fmt.Fprintf(out, "   [%d] %-14s %-22s %-6s in %-10d out %d\n",
				i, st.Spec, name, state, st.InBytes, st.OutBytes)
		}
		// A fan-out session's delivery tree: one indented row per receiver
		// branch with its own counters and protection level.
		for _, rx := range s.Receivers {
			fec := "-"
			if rx.N > rx.K {
				fec = fmt.Sprintf("%d/%d", rx.N, rx.K)
			}
			fmt.Fprintf(out, "  -> %-21s %10d %12d %8d  fec %-6s loss %.4f reports %d retunes %d",
				rx.Receiver, rx.OutPackets, rx.OutBytes, rx.Drops, fec, rx.LossRate, rx.Reports, rx.Retunes)
			if rx.Mechanism != "" {
				fmt.Fprintf(out, " mech %s", rx.Mechanism)
			}
			if rx.Primed > 0 {
				fmt.Fprintf(out, " primed %d", rx.Primed)
			}
			if rx.Chain != "" {
				fmt.Fprintf(out, "  tail %s", rx.Chain)
			}
			if len(rx.Stages) > 0 {
				fmt.Fprintf(out, "  stages %s", strings.Join(rx.Stages, ","))
			}
			fmt.Fprintln(out)
		}
	}
}
