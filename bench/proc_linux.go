//go:build linux

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
)

// childAttr makes the kernel kill the proxy if the harness dies first, so no
// run can leave a proxy behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// cpuNs returns the CPU time pid's threads have consumed, in ns. It sums the
// scheduler's per-thread run time (/proc/<pid>/task/*/schedstat, ns
// resolution); where the kernel keeps no schedstats it falls back to utime +
// stime from /proc/<pid>/stat, which counts in 10 ms ticks.
func cpuNs(pid int) (int64, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var total int64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		run, _, _ := bytes.Cut(data, []byte(" "))
		ns, err := strconv.ParseInt(string(run), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		total += ns
	}
	if total > 0 {
		return total, nil
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields count from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	_, rest, ok := bytes.Cut(data, []byte(") "))
	fields := bytes.Fields(rest)
	if !ok || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(string(fields[11]), 10, 64)
	stime, err2 := strconv.ParseInt(string(fields[12]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	const tickNs = 10_000_000 // USER_HZ is 100 on every Linux ABI
	return (utime + stime) * tickNs, nil
}

// memKiB returns pid's current and peak resident set (VmRSS, VmHWM) in KiB.
func memKiB(pid int) (rss, hwm int64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		key, val, _ := bytes.Cut(line, []byte(":"))
		fields := bytes.Fields(val)
		if len(fields) == 0 {
			continue
		}
		switch string(key) {
		case "VmRSS":
			rss, _ = strconv.ParseInt(string(fields[0]), 10, 64)
		case "VmHWM":
			hwm, _ = strconv.ParseInt(string(fields[0]), 10, 64)
		}
	}
	if rss == 0 || hwm == 0 {
		return 0, 0, fmt.Errorf("/proc/%d/status: no VmRSS/VmHWM", pid)
	}
	return rss, hwm, nil
}
