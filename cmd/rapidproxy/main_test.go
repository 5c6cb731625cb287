package main

import (
	"strings"
	"testing"
)

// TestGSOFlagStillParses pins the deprecated -gso flag: it must parse and do
// nothing, so the run gets past flag parsing to the -mode check instead of
// failing on an unknown flag.
func TestGSOFlagStillParses(t *testing.T) {
	err := run([]string{"-gso", "-mode", "bogus"})
	if err == nil || !strings.Contains(err.Error(), `unknown -mode "bogus"`) {
		t.Fatalf("run(-gso -mode bogus) = %v, want the unknown-mode error", err)
	}
}

// TestStreamModeRejectsEngineFlags sets each engine-only flag to a
// non-default value in stream mode: the run must fail, naming that flag,
// before it listens or dials anything.
func TestStreamModeRejectsEngineFlags(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"max-sessions", "7"},
		{"shards", "2"},
		{"reuseport", "true"},
		{"pprof", "127.0.0.1:0"},
		{"allow-roaming", "true"},
		{"adapt", "true"},
		{"adapt-policy", "ladder.txt"},
		{"fanout", "127.0.0.1:9000"},
		{"branch", "ratelimit=64000"},
		{"report-staleness", "30s"},
		{"idle-ttl", "1m"},
		{"admission", "harvest"},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			err := run([]string{"-mode", "stream", "-" + tc.flag + "=" + tc.value})
			if err == nil || !strings.Contains(err.Error(), "-"+tc.flag) {
				t.Fatalf("run(-mode stream -%s=%s) = %v, want an error naming -%s", tc.flag, tc.value, err, tc.flag)
			}
		})
	}
}
