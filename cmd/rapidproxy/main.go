// Command rapidproxy runs a RAPIDware proxy node.
//
// In the default engine mode it serves many concurrent UDP proxy sessions:
// every datagram carries a 4-byte session ID followed by a packet frame,
// each session runs its own dynamically reconfigurable filter chain, and
// output is echoed to the session's sender or forwarded downstream. The data
// plane is sharded (-shards, default one shard per CPU; -reuseport on
// capable builds gives each shard its own SO_REUSEPORT socket), and the
// control protocol reports engine, per-shard and per-session counters.
// -pprof serves /debug/pprof for go tool pprof and curl from a small
// responder built on runtime/pprof and runtime/trace, so the binary links no
// HTTP stack (heap?gc=1 collects first, so the heap profile is current);
// each shard's reader carries the pprof labels shard=<i> and loop=reader, and
// the maintenance goroutine loop=maint, so a CPU profile splits per shard and
// loop.
//
//	rapidproxy -listen :7400 -shards 8 -chain counting,fec-encode=6/4 \
//	    [-forward host:7500] [-control 127.0.0.1:7100] [-pprof localhost:6060]
//
// SIGINT/SIGTERM drain the engine gracefully: every live session's chain is
// stopped and its buffers are returned before the process exits.
//
// The closed-loop adaptation plane (-adapt) drives per-session FEC from
// receiver feedback reports. With fan-out (-fanout) every member of the group
// gets its own delivery branch — a short filter tail fed by the session's
// shared trunk — adapted by that receiver's own loss reports, so
// heterogeneous stations each get protection (and, with -branch, fidelity)
// matched to their own channel:
//
//	rapidproxy -listen :7400 -adapt [-adapt-policy ladder.txt] \
//	    [-fanout rx1:9000,rx2:9000] [-branch 'fec-adapt,ratelimit=64000'] \
//	    [-report-staleness 30s]
//
// Stream mode (-mode stream) bridges a single TCP stream of wire-format
// packet frames through one filter chain built from -chain, the same spec
// language and the same executor as engine mode: one goroutine reads each
// frame from the upstream connection, runs it through the chain and writes
// what comes out downstream. The control protocol serves the stream as
// session 1, so rapidctl recomposes it like any engine session (rapidctl
// -session 1 ...):
//
//	rapidproxy -mode stream -name edge -listen :7000 -forward host:8000 \
//	    [-control 127.0.0.1:7100] [-chain counting,fec-encode=6/4]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rapidware/internal/adapt"
	"rapidware/internal/compose"
	"rapidware/internal/control"
	"rapidware/internal/endpoint"
	"rapidware/internal/engine"
	"rapidware/internal/filter"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatalf("rapidproxy: %v", err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rapidproxy", flag.ContinueOnError)
	var (
		name        = fs.String("name", "rapidproxy", "proxy name reported over the control protocol")
		mode        = fs.String("mode", "engine", "serving mode: engine (multi-session UDP) or stream (single TCP stream)")
		listenAddr  = fs.String("listen", ":7400", "address to serve on (UDP in engine mode, TCP in stream mode)")
		forwardAddr = fs.String("forward", "", "downstream address (optional in engine mode: empty echoes to senders; required in stream mode)")
		controlAddr = fs.String("control", "127.0.0.1:7100", "address for the management (control) protocol; it has no authentication, so expose it beyond loopback deliberately")
		maxSessions = fs.Int("max-sessions", engine.DefaultMaxSessions, "engine mode: maximum concurrent sessions")
		shards      = fs.Int("shards", 0, "engine mode: data-plane shards (readers/table shards/output queues); 0 = one per CPU")
		reusePort   = fs.Bool("reuseport", false, "engine mode: one SO_REUSEPORT socket per shard (linux/amd64 and linux/arm64, not with the 'purego' tag)")
		// -gso still parses so existing command lines (bench/'s fanout-mixed
		// among them) keep working.
		_           = fs.Bool("gso", false, "deprecated, no effect: GSO is always attempted")
		pprofAddr   = fs.String("pprof", "", "engine mode: serve /debug/pprof for go tool pprof and curl on this address (e.g. localhost:6060)")
		chainSpec   = fs.String("chain", "", "chain spec: engine mode's default for new sessions, stream mode's chain (e.g. counting,fec-encode=6/4)")
		roaming     = fs.Bool("allow-roaming", false, "engine mode: let a session's echo destination follow its most recent sender")
		adaptOn     = fs.Bool("adapt", false, "engine mode: enable the closed-loop adaptation plane (receiver feedback drives per-session FEC; per-receiver with -fanout)")
		adaptPolicy = fs.String("adapt-policy", "", "engine mode: load the loss->(n,k) policy ladder from this file (implies -adapt)")
		fanout      = fs.String("fanout", "", "engine mode: comma-separated downstream receiver addresses to multicast session output to")
		branchSpec  = fs.String("branch", "", "engine mode: per-receiver branch tail spec for fan-out sessions (e.g. 'fec-adapt,ratelimit=64000')")
		staleness   = fs.Duration("report-staleness", 0, "engine mode: age out receivers whose last loss report is older than this window (0 disables)")
		idleTTL     = fs.Duration("idle-ttl", 0, "engine mode: park sessions idle for this long down to a compact record, rebuilt on their next datagram (0 disables)")
		admission   = fs.String("admission", "", "engine mode: policy at -max-sessions: reject (default) or harvest (evict the longest-parked session, else the oldest-idle live one)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger := log.New(os.Stderr, "rapidproxy ", log.LstdFlags)

	// Reject engine-mode flags in stream mode instead of silently ignoring
	// them.
	switch *mode {
	case "engine":
		return runEngine(logger, engineOptions{
			name:        *name,
			listen:      *listenAddr,
			forward:     *forwardAddr,
			control:     *controlAddr,
			maxSessions: *maxSessions,
			shards:      *shards,
			reusePort:   *reusePort,
			pprof:       *pprofAddr,
			chain:       *chainSpec,
			roaming:     *roaming,
			adapt:       *adaptOn,
			adaptPolicy: *adaptPolicy,
			fanout:      *fanout,
			branch:      *branchSpec,
			staleness:   *staleness,
			idleTTL:     *idleTTL,
			admission:   *admission,
		})
	case "stream":
		if *roaming || *maxSessions != engine.DefaultMaxSessions {
			return fmt.Errorf("-max-sessions/-allow-roaming are engine-mode flags")
		}
		if *adaptOn || *adaptPolicy != "" || *fanout != "" || *branchSpec != "" || *staleness != 0 {
			return fmt.Errorf("-adapt/-adapt-policy/-fanout/-branch/-report-staleness are engine-mode flags")
		}
		if *idleTTL != 0 || *admission != "" {
			return fmt.Errorf("-idle-ttl/-admission are engine-mode flags")
		}
		if *shards != 0 || *reusePort || *pprofAddr != "" {
			return fmt.Errorf("-shards/-reuseport/-pprof are engine-mode flags")
		}
		return runStream(logger, *name, *listenAddr, *forwardAddr, *controlAddr, *chainSpec)
	default:
		return fmt.Errorf("unknown -mode %q (want engine or stream)", *mode)
	}
}

// engineOptions carries the engine-mode flag values.
type engineOptions struct {
	name, listen, forward, control string
	maxSessions                    int
	shards                         int
	reusePort                      bool
	pprof                          string
	chain                          string
	roaming                        bool
	adapt                          bool
	adaptPolicy                    string
	fanout                         string
	branch                         string
	staleness                      time.Duration
	idleTTL                        time.Duration
	admission                      string
}

// runEngine serves the multi-session UDP engine.
func runEngine(logger *log.Logger, opts engineOptions) error {
	var policy adapt.Policy
	if opts.adaptPolicy != "" {
		p, err := adapt.LoadPolicyFile(opts.adaptPolicy)
		if err != nil {
			return err
		}
		policy = p
		opts.adapt = true
	}
	eng, err := engine.New(engine.Config{
		Name:            opts.name,
		ListenAddr:      opts.listen,
		MaxSessions:     opts.maxSessions,
		Shards:          opts.shards,
		ReusePort:       opts.reusePort,
		Chain:           opts.chain,
		Forward:         opts.forward,
		AllowRoaming:    opts.roaming,
		Fanout:          splitList(opts.fanout),
		Branch:          opts.branch,
		Adapt:           opts.adapt,
		AdaptPolicy:     policy,
		ReportStaleness: opts.staleness,
		IdleTTL:         opts.idleTTL,
		Admission:       engine.AdmissionPolicy(opts.admission),
		Logger:          logger,
	})
	if err != nil {
		return err
	}
	if err := eng.Start(); err != nil {
		return err
	}
	defer eng.Close()

	if opts.pprof != "" {
		// Live profiling of the sharded runtime (pprof.go).
		ln, err := net.Listen("tcp", opts.pprof)
		if err != nil {
			return fmt.Errorf("pprof listen %q: %w", opts.pprof, err)
		}
		defer ln.Close()
		logger.Printf("pprof on http://%s/debug/pprof/", ln.Addr())
		go servePprof(ln)
	}

	server := control.NewServer(logger)
	server.SetSessionSource(eng)
	boundControl, err := server.Listen(opts.control)
	if err != nil {
		return err
	}
	defer server.Close()
	logger.Printf("control protocol on %s", boundControl)

	waitForSignal(logger)
	// Graceful drain: stop accepting control connections, then close the
	// engine, which stops every live session's chain and returns its pooled
	// buffers before the process exits.
	server.Close()
	n := eng.SessionCount()
	if err := eng.Close(); err != nil {
		return err
	}
	logger.Printf("drained %d live sessions", n)
	return nil
}

// runStream bridges one TCP stream of frames through a single filter chain
// whose interior is a compose.Live, served to the control plane as session 1.
func runStream(logger *log.Logger, name, listen, forward, controlAddr, chainSpec string) error {
	if forward == "" {
		return fmt.Errorf("-forward is required in stream mode")
	}
	env := compose.Env{StreamID: 1}
	plan, err := compose.Parse(chainSpec, compose.ModeChain)
	if err != nil {
		return err
	}

	// Wait for the upstream connection, then dial downstream.
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	logger.Printf("waiting for data stream on %s", ln.Addr())
	upstream, err := ln.Accept()
	if err != nil {
		return err
	}
	downstream, err := net.Dial("tcp", forward)
	if err != nil {
		return err
	}
	chain := filter.NewChain(name)
	for _, s := range []filter.Stage{
		endpoint.NewFrameReader("upstream:"+upstream.RemoteAddr().String(), upstream),
		endpoint.NewWriter("downstream:"+forward, downstream),
	} {
		if err := chain.Append(s); err != nil {
			return err
		}
	}
	live, err := compose.Attach(chain, compose.Default(), env, compose.ModeChain, plan)
	if err != nil {
		return err
	}
	if err := chain.Start(); err != nil {
		return err
	}
	logger.Printf("forwarding %s -> %s as session %d with chain %q", listen, forward, env.StreamID, live.String())

	server := control.NewServer(logger)
	server.SetSessionSource(compose.NewStreamSession(live))
	boundControl, err := server.Listen(controlAddr)
	if err != nil {
		return err
	}
	defer server.Close()
	logger.Printf("control protocol on %s", boundControl)

	waitForSignal(logger)
	return chain.Stop()
}

func waitForSignal(logger *log.Logger) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Printf("shutting down")
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if trimmed := strings.TrimSpace(part); trimmed != "" {
			out = append(out, trimmed)
		}
	}
	return out
}
