package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"rapidware/internal/netbatch"
)

// metricDef is one catalogue entry. The catalogue is the single list both the
// human report and BENCHMARK.json (checked by a test) are written from.
type metricDef struct {
	name, unit string
	higher     bool    // better when higher
	bound      float64 // end-to-end only: allowed worsening, share of the parent's median
}

// endToEnd are the metrics a user of the proxy would see. Every workload
// reports every one of them, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"pps", "1/s", true, 0.25},
	{"goodput_mbps", "Mbit/s", true, 0.25},
	{"rtt_p50_us", "us", false, 0.25},
	{"cpu_us_per_pkt", "us", false, 0.25},
	{"rss_mib", "MiB", false, 0.25},
}

// perLayer are the metrics of single layers and the workload-specific
// latencies; they carry no bound. Each is zero on a workload it does not
// apply to.
var perLayer = []metricDef{
	// Workload-specific end-to-end figures. Only one workload can report
	// each, so they cannot carry a bound under a contract that runs every
	// end-to-end metric on every workload.
	{name: "fail_frac", unit: "frac"},
	{name: "rtt_p99_us", unit: "us"},
	{name: "recompose_p50_ms", unit: "ms"},
	{name: "recompose_p99_ms", unit: "ms"},
	{name: "open_rtt_p50_us", unit: "us"},
	{name: "open_rtt_p99_us", unit: "us"},
	{name: "unpark_rtt_p50_us", unit: "us"},
	{name: "rss_kib_per_session", unit: "KiB"},
	{name: "gen.late_p99_us", unit: "us"},
	// Counters the proxy keeps, read over the control protocol.
	{name: "netbatch.recv_fill", unit: "pkt/call", higher: true},
	{name: "netbatch.send_fill", unit: "pkt/call", higher: true},
	{name: "netbatch.syscalls_per_pkt", unit: "call/pkt"},
	{name: "engine.session_drops", unit: "count"},
	{name: "engine.write_drops", unit: "count"},
	{name: "engine.malformed", unit: "count"},
	{name: "engine.rejected", unit: "count"},
	{name: "engine.chain_errors", unit: "count"},
	{name: "engine.admission_drops", unit: "count"},
	{name: "engine.parks", unit: "count"},
	{name: "engine.unparks", unit: "count"},
	{name: "engine.bypass_hits", unit: "count", higher: true},
	{name: "engine.coalesced_sends", unit: "count", higher: true},
	{name: "engine.cohorts", unit: "count"},
	{name: "fec.repairs", unit: "count"},
	{name: "adapt.reports", unit: "count"},
	{name: "adapt.retunes", unit: "count"},
	// Timed in bench/layers, at the workload's sizes.
	{name: "netbatch.read_ns_per_pkt", unit: "ns"},
	{name: "netbatch.write_ns_per_pkt", unit: "ns"},
	{name: "packet.parse_ns_per_pkt", unit: "ns"},
	{name: "packet.append_ns_per_pkt", unit: "ns"},
	{name: "packet.pool_ns_per_pkt", unit: "ns"},
	{name: "stream.hop_ns_per_frame", unit: "ns"},
	{name: "endpoint.pipe_ns_per_frame", unit: "ns"},
	{name: "filter.stage_ns_per_frame", unit: "ns"},
	{name: "fec.encode_ns_per_group", unit: "ns"},
	{name: "fec.decode_ns_per_group", unit: "ns"},
	{name: "gf256.addmul_mb_s", unit: "MB/s", higher: true},
	{name: "compose.build_us", unit: "us"},
	{name: "compose.recompose_us", unit: "us"},
	{name: "compose.recompose_busy_us", unit: "us"},
	{name: "arq.lookup_ns", unit: "ns"},
	{name: "adapt.decide_ns", unit: "ns"},
	{name: "control.stats_rtt_us", unit: "us"},
	// Derived.
	{name: "engine.residual_ns_per_pkt", unit: "ns"},
	{name: "trace.overhead_frac", unit: "frac"},
}

// sample is one reported value with the number of observations behind it.
type sample struct {
	value float64
	n     uint64
}

// outcome is a run turned into metrics.
type outcome struct {
	workload          string
	seed              int64
	e2e, layer        map[string]sample
	attempted, failed uint64
	// wrong lists exact-count violations; any makes the run incorrect.
	wrong []string
	notes []string
}

func (oc *outcome) correct() bool { return oc.failed == 0 && len(oc.wrong) == 0 }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// window is the per-slice view of a span of the timeline, tallies merged.
type window struct {
	pps, bps  []float64 // per slice: frames and payload bytes per second
	p50, p99  []float64 // per slice, ns; p99 only where enough samples
	all       hist
	cpuPerPkt []float64 // us
}

func (ob *observed) window(from, to time.Duration) window {
	var w window
	for s := int(from / time.Second); s < int(to/time.Second); s++ {
		var h hist
		var frames, bytes uint64
		first, last := int64(math.MaxInt64), int64(0)
		for _, t := range ob.tallies {
			st := &t.slices[s]
			if st.frames == 0 {
				continue
			}
			frames += st.frames
			bytes += st.bytes
			first, last = min(first, st.firstNs), max(last, st.lastNs)
			h.merge(&st.rtt)
		}
		if frames > 1 && last > first {
			// n arrivals span n-1 gaps.
			perSec := float64(frames-1) / float64(frames) / (float64(last-first) / 1e9)
			w.pps = append(w.pps, float64(frames)*perSec)
			w.bps = append(w.bps, float64(bytes)*perSec)
		}
		w.all.merge(&h)
		if h.n > 0 {
			p50, _ := h.quantile(0.5)
			w.p50 = append(w.p50, p50)
		}
		if p99, ok := h.p99(); ok {
			w.p99 = append(w.p99, p99)
		}
		if frames > 0 {
			w.cpuPerPkt = append(w.cpuPerPkt, float64(ob.cpu[s+1]-ob.cpu[s])/1e3/float64(frames))
		}
	}
	return w
}

// outcome turns what the run observed into the catalogue's metrics.
func (ob *observed) outcome() *outcome {
	w, tl := ob.o.w, ob.tl
	oc := &outcome{workload: w.Name, seed: ob.o.seed, e2e: map[string]sample{}, layer: map[string]sample{}}
	win := ob.window(tl.warmup, tl.warmup+tl.window)
	slicesN := uint64(len(win.pps))

	oc.e2e["setup_s"] = sample{median(ob.setupS), uint64(len(ob.setupS))}
	oc.e2e["pps"] = sample{median(win.pps), slicesN}
	oc.e2e["goodput_mbps"] = sample{median(win.bps) * 8 / 1e6, slicesN}
	oc.e2e["rtt_p50_us"] = sample{median(win.p50) / 1e3, win.all.n}
	oc.e2e["cpu_us_per_pkt"] = sample{median(win.cpuPerPkt), slicesN}
	oc.e2e["rss_mib"] = sample{float64(ob.hwmKiB) / 1024, 1}

	for _, d := range perLayer {
		oc.layer[d.name] = sample{}
	}
	oc.layer["rtt_p99_us"] = sample{median(win.p99) / 1e3, win.all.n}
	var late hist
	for _, t := range ob.tallies {
		oc.attempted += t.attempted
		oc.failed += t.failed()
		late.merge(&t.late)
	}

	// Workload-specific figures.
	if c := ob.comp; c != nil {
		oc.attempted += c.ops
		oc.failed += c.failed
		late.merge(&c.late)
		p50, _ := c.latency.quantile(0.5)
		oc.layer["recompose_p50_ms"] = sample{p50 / 1e6, c.latency.n}
		if p99, ok := c.latency.p99(); ok {
			oc.layer["recompose_p99_ms"] = sample{p99 / 1e6, c.latency.n}
		}
	}
	if len(ob.churn) > 0 {
		var open, unpark hist
		var cold uint64
		for _, c := range ob.churn {
			open.merge(&c.openRTT)
			unpark.merge(&c.unparkRTT)
			cold += c.coldTouches
		}
		p50, _ := open.quantile(0.5)
		oc.layer["open_rtt_p50_us"] = sample{p50 / 1e3, open.n}
		if p99, ok := open.p99(); ok {
			oc.layer["open_rtt_p99_us"] = sample{p99 / 1e3, open.n}
		}
		p50, _ = unpark.quantile(0.5)
		oc.layer["unpark_rtt_p50_us"] = sample{p50 / 1e3, unpark.n}
		oc.layer["rss_kib_per_session"] = sample{float64(ob.primedKiB-ob.idleKiB) / float64(w.Resident), 1}
		if ob.final.Unparks != cold {
			oc.wrong = append(oc.wrong, fmt.Sprintf("engine.unparks = %d, want %d (every cold touch must find its session parked)", ob.final.Unparks, cold))
		}
	}
	if late.n > 0 {
		if p99, ok := late.p99(); ok {
			oc.layer["gen.late_p99_us"] = sample{p99 / 1e3, late.n}
		}
	}

	// The proxy's counters. Ratios and rates are taken over the measured
	// window; error counters over the proxy's whole life.
	b, a, f := ob.before, ob.after, ob.final
	dgrams, writes := a.Datagrams-b.Datagrams, a.BatchedWrites-b.BatchedWrites
	recv, send := a.RecvCalls-b.RecvCalls, a.SendCalls-b.SendCalls
	if recv > 0 && send > 0 {
		oc.layer["netbatch.recv_fill"] = sample{float64(dgrams) / float64(recv), recv}
		oc.layer["netbatch.send_fill"] = sample{float64(writes) / float64(send), send}
		oc.layer["netbatch.syscalls_per_pkt"] = sample{float64(recv+send) / float64(dgrams+writes), dgrams + writes}
	}
	count := func(name string, v uint64) { oc.layer[name] = sample{float64(v), 1} }
	var drops, repairs, reports, retunes uint64
	cohorts := 0
	for _, s := range ob.sessions {
		drops += s.Drops
		repairs += s.Repairs
		if s.Adapt != nil {
			reports += s.Adapt.Reports
			retunes += s.Adapt.Retunes
		}
		cohorts = max(cohorts, s.Cohorts)
		if ob.fan != nil && s.Cohorts != 2 {
			oc.wrong = append(oc.wrong, fmt.Sprintf("session %d ended with %d cohorts, want 2", s.ID, s.Cohorts))
		}
	}
	count("engine.session_drops", drops)
	count("engine.write_drops", f.WriteDrops)
	count("engine.malformed", f.Malformed)
	count("engine.rejected", f.Rejected)
	count("engine.chain_errors", f.ChainErrors)
	count("engine.admission_drops", f.AdmissionDrops)
	count("engine.parks", a.Parks-b.Parks)
	count("engine.unparks", a.Unparks-b.Unparks)
	count("engine.bypass_hits", a.BypassHits-b.BypassHits)
	count("engine.coalesced_sends", a.CoalescedSends-b.CoalescedSends)
	count("engine.cohorts", uint64(cohorts))
	count("fec.repairs", repairs)
	count("adapt.reports", reports)
	count("adapt.retunes", retunes)

	if len(ob.fec) > 0 {
		var want, unrecoverable, verified, mismatched uint64
		for _, d := range ob.fec {
			want += d.repairs
			unrecoverable += d.unrecoverable
			verified += d.verified
			mismatched += d.mismatched
		}
		oc.attempted += verified
		oc.failed += mismatched
		if repairs != want {
			oc.wrong = append(oc.wrong, fmt.Sprintf("fec.repairs = %d, want %d (the seed's recoverable erasures)", repairs, want))
		}
		oc.notes = append(oc.notes, fmt.Sprintf("channel: %d recoverable erasures, %d unrecoverable; %d re-encoded groups parity-checked",
			want, unrecoverable, verified))
	}
	if ob.fan != nil {
		var parity uint64
		for _, s := range ob.fan.sinks {
			parity += s.parity
		}
		oc.notes = append(oc.notes, fmt.Sprintf("fan-out: gso=%v, %d parity frames at the lossy sinks", netbatch.GSOAvailable, parity))
	}
	if oc.attempted > 0 {
		oc.layer["fail_frac"] = sample{float64(oc.failed) / float64(oc.attempted), oc.attempted}
	}

	if ob.o.traced {
		ob.tracedOutcome(oc, win)
	}
	return oc
}

// tracedOutcome adds what only a traced run has: the layer replay's timings,
// the residual, and the tracing overhead.
func (ob *observed) tracedOutcome(oc *outcome, win window) {
	tl := ob.tl
	for name, s := range ob.layers.Metrics {
		oc.layer[name] = sample{s.Value, s.N}
	}
	p50, _ := ob.statsRTT.quantile(0.5)
	oc.layer["control.stats_rtt_us"] = sample{p50 / 1e3, ob.statsRTT.n}

	// What public-function spans cannot see: demux, queue waits, goroutine
	// hand-offs. Measured CPU per returned frame minus the timed layers on
	// the workload's path.
	path := 0.0
	for _, term := range ob.o.w.Path {
		path += term.Per * oc.layer[term.Metric].value
	}
	cpu := oc.e2e["cpu_us_per_pkt"]
	oc.layer["engine.residual_ns_per_pkt"] = sample{cpu.value*1e3 - path, cpu.n}

	traced := ob.window(tl.warmup+tl.window, tl.warmup+tl.window+tl.traced)
	if base := median(win.pps); base > 0 {
		oc.layer["trace.overhead_frac"] = sample{1 - median(traced.pps)/base, uint64(len(traced.pps))}
	}
}

// print writes the outcome as a table: every metric by name, with its unit
// and sample count.
func (oc *outcome) print(out io.Writer, traced bool) {
	fmt.Fprintf(out, "\n== %s (seed %d) ==\n", oc.workload, oc.seed)
	row := func(d metricDef, s sample) {
		fmt.Fprintf(out, "  %-28s %14.4f %-9s n=%d\n", d.name, s.value, d.unit, s.n)
	}
	for _, d := range endToEnd {
		row(d, oc.e2e[d.name])
	}
	for _, d := range perLayer {
		s := oc.layer[d.name]
		if s.n == 0 && !traced {
			continue // needs a traced run, or does not apply to this workload
		}
		row(d, s)
	}
	fmt.Fprintf(out, "  attempted %d, failed %d, correct %v\n", oc.attempted, oc.failed, oc.correct())
	for _, n := range oc.notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	for _, w := range oc.wrong {
		fmt.Fprintf(out, "  WRONG: %s\n", w)
	}
}

// compare prints two sets of runs of the same code side by side: per metric
// and workload both values, their relative difference, and the bound.
func compare(out io.Writer, a, b []*outcome) (within bool) {
	within = true
	fmt.Fprintf(out, "\n== repeat: two sets of the same code ==\n")
	fmt.Fprintf(out, "  %-16s %-16s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := range a {
		for _, d := range endToEnd {
			x, y := a[i].e2e[d.name].value, b[i].e2e[d.name].value
			diff := math.Abs(x-y) / math.Max(math.Min(x, y), 1e-12)
			mark := ""
			if diff > d.bound {
				mark, within = "  MISSES BOUND", false
			}
			fmt.Fprintf(out, "  %-16s %-16s %14.4f %14.4f %7.2f%% %5.0f%%%s\n",
				a[i].workload, d.name, x, y, 100*diff, 100*d.bound, mark)
		}
	}
	return within
}
