package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/incident"
)

func TestParseInputsDefault(t *testing.T) {
	in, err := parseInputs("", 5, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 5 || in[0] != 0 || in[4] != 8 {
		t.Errorf("default inputs %v", in)
	}
	single, err := parseInputs("", 1, 3, 9)
	if err != nil || single[0] != 3 {
		t.Errorf("single default input %v, %v", single, err)
	}
}

func TestParseInputsExplicit(t *testing.T) {
	in, err := parseInputs(" 1, 2.5 ,3", 3, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if in[0] != 1 || in[1] != 2.5 || in[2] != 3 {
		t.Errorf("inputs %v", in)
	}
	if _, err := parseInputs("1,2", 3, 0, 10); err == nil {
		t.Error("count mismatch accepted")
	}
	if _, err := parseInputs("1,x,3", 3, 0, 10); err == nil {
		t.Error("garbage accepted")
	}
}

func TestParseCrashes(t *testing.T) {
	opts, err := parseCrashes("0:3, 2:10")
	if err != nil || len(opts) != 2 {
		t.Fatalf("opts %v err %v", opts, err)
	}
	if _, err := parseCrashes("nope"); err == nil {
		t.Error("malformed crash accepted")
	}
	none, err := parseCrashes("")
	if err != nil || none != nil {
		t.Errorf("empty crash flag: %v %v", none, err)
	}
}

func TestParseByz(t *testing.T) {
	opts, err := parseByz("0:equivocate,1:silent")
	if err != nil || len(opts) != 2 {
		t.Fatalf("opts %v err %v", opts, err)
	}
	if _, err := parseByz("0"); err == nil {
		t.Error("missing behavior accepted")
	}
	if _, err := parseByz("x:silent"); err == nil {
		t.Error("bad id accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	if err := run([]string{"-model", "crash", "-n", "5", "-t", "2", "-eps", "0.01",
		"-hi", "10", "-sched", "splitviews", "-crash", "0:3"}); err != nil {
		t.Fatalf("crash run: %v", err)
	}
	if err := run([]string{"-model", "witness", "-n", "7", "-t", "2",
		"-byz", "0:equivocate"}); err != nil {
		t.Fatalf("witness run: %v", err)
	}
	if err := run([]string{"-model", "trim", "-n", "8", "-t", "1"}); err != nil {
		t.Fatalf("trim run: %v", err)
	}
	if err := run([]string{"-model", "sync", "-n", "7", "-t", "2", "-sched", "sync"}); err != nil {
		t.Fatalf("sync run: %v", err)
	}
}

func TestRunScenario(t *testing.T) {
	if err := run([]string{"-model", "trim", "-scenario", "skew+equivocate/n=15,t=2"}); err != nil {
		t.Fatalf("scenario run: %v", err)
	}
	// A spec without t inherits the -t flag's fault bound.
	if err := run([]string{"-model", "crash", "-t", "3", "-scenario", "splitviews/n=9"}); err != nil {
		t.Fatalf("scenario without t: %v", err)
	}
	if err := run([]string{"-model", "crash", "-scenario", "warp/n=9,t=2"}); err == nil {
		t.Error("unknown scenario scheduler accepted")
	}
	if err := run([]string{"-model", "crash", "-scenario", "sync+gremlin/n=9,t=2"}); err == nil {
		t.Error("unknown scenario fault accepted")
	}
	// More fault slots than the protocol tolerates must die at spec time.
	if err := run([]string{"-model", "crash", "-scenario", "sync+equivocate/n=9,t=5"}); err == nil {
		t.Error("overfaulted scenario accepted")
	}
}

func TestRunRejects(t *testing.T) {
	if err := run([]string{"-model", "warp"}); err == nil {
		t.Error("unknown model accepted")
	}
	if err := run([]string{"-model", "crash", "-n", "4", "-t", "2"}); err == nil {
		t.Error("bad resilience accepted")
	}
	if err := run([]string{"-model", "crash", "-inputs", "1,2"}); err == nil {
		t.Error("input count mismatch accepted")
	}
	if err := run([]string{"-model", "crash", "-sched", "warp"}); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if err := run([]string{"-model", "crash", "-byz", "0:gremlin"}); err == nil {
		t.Error("unknown behavior accepted")
	}
	if err := run([]string{"-model", "crash", "-crash", "zzz"}); err == nil {
		t.Error("malformed crash plan accepted")
	}
}

func TestRecordReplayRoundTrip(t *testing.T) {
	path := t.TempDir() + "/run.bundle"
	// Flag-style adversary: synthesized scenario plus explicit overrides.
	if err := run([]string{"-model", "crash", "-n", "7", "-t", "2", "-eps", "0.01",
		"-sched", "splitviews", "-crash", "0:5", "-seed", "9", "-record", path}); err != nil {
		t.Fatalf("record: %v", err)
	}
	if err := run([]string{"-replay", path}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	// Scenario-style adversary.
	if err := run([]string{"-model", "trim", "-scenario", "skew+equivocate/n=15,t=2",
		"-eps", "0.01", "-record", path}); err != nil {
		t.Fatalf("scenario record: %v", err)
	}
	if err := run([]string{"-replay", path}); err != nil {
		t.Fatalf("scenario replay: %v", err)
	}
}

func TestRecordRejects(t *testing.T) {
	path := t.TempDir() + "/run.bundle"
	if err := run([]string{"-model", "crash", "-live", "-record", path}); err == nil {
		t.Error("-record -live accepted")
	}
	if err := run([]string{"-replay", t.TempDir() + "/missing.bundle"}); err == nil {
		t.Error("replay of a missing bundle succeeded")
	}
}

func TestReplayDetectsTampering(t *testing.T) {
	path := t.TempDir() + "/run.bundle"
	if err := run([]string{"-model", "crash", "-n", "7", "-t", "2", "-eps", "0.01",
		"-record", path}); err != nil {
		t.Fatalf("record: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-replay", path})
	if !errors.Is(err, incident.ErrMalformed) {
		t.Fatalf("tampered bundle: got %v, want ErrMalformed", err)
	}
}

// TestRunProfileFlags checks that -cpuprofile and -memprofile write
// non-empty profiles, and that an unwritable path fails the command.
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if err := run([]string{"-model", "crash", "-n", "4", "-t", "1", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: want a non-empty profile (err %v)", path, err)
		}
	}
	bad := filepath.Join(dir, "missing", "out.prof")
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		if err := run([]string{"-model", "crash", "-n", "4", "-t", "1", flag, bad}); err == nil {
			t.Errorf("run %s %s: accepted an unwritable path", flag, bad)
		}
	}
}
