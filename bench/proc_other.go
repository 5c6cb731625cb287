//go:build !linux

package main

import (
	"errors"
	"syscall"
)

// The benchmark reads the proxy's CPU time and memory from /proc, so it runs
// on Linux only; main refuses to start elsewhere before any of these is used.
var errNoProc = errors.New("bench: /proc sampling needs Linux")

func childAttr() *syscall.SysProcAttr        { return nil }
func cpuNs(int) (int64, error)               { return 0, errNoProc }
func memKiB(int) (rss, hwm int64, err error) { return 0, 0, errNoProc }
