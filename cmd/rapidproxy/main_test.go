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
