package main

import (
	"path/filepath"
	"testing"
)

// TestRunVirtual drives the daemon end to end on the deterministic
// virtual-time engine over a short horizon.
func TestRunVirtual(t *testing.T) {
	if err := run([]string{"-mode", "virtual", "-horizon", "300", "-csv"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunBadFlags checks that malformed invocations fail instead of
// serving a default configuration.
func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-bogus"},
		{"-mode", "warp", "-horizon", "300"},
		{"-model", "paxos", "-horizon", "300"},
		{"-workload", "not-a-workload"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}

// TestRunProfileFlagsBadPath checks that an unwritable -cpuprofile or
// -memprofile path fails the command instead of serving unprofiled.
func TestRunProfileFlagsBadPath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "out.prof")
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		if err := run([]string{"-mode", "virtual", "-horizon", "300", flag, bad}); err == nil {
			t.Errorf("run %s %s: accepted an unwritable path", flag, bad)
		}
	}
}
