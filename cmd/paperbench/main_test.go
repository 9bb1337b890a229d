package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fenceplace"
	"fenceplace/corpus"
)

func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in   string
		i, n int
		ok   bool
	}{
		{"", 0, 0, true},
		{"1/2", 1, 2, true},
		{"2/2", 2, 2, true},
		{"3/10", 3, 10, true},
		{"1/2x", 0, 0, false},
		{"1/2/3", 0, 0, false},
		{"1 /2", 0, 0, false},
		{"x/2", 0, 0, false},
		{"1/", 0, 0, false},
		{"2", 0, 0, false},
		{"0/2", 0, 0, false},
		{"3/2", 0, 0, false},
		{"1/0", 0, 0, false},
		{"-1/2", 0, 0, false},
	} {
		i, n, err := parseShard(tc.in)
		if (err == nil) != tc.ok || i != tc.i || n != tc.n {
			t.Errorf("parseShard(%q) = %d, %d, %v; want %d, %d, ok=%v", tc.in, i, n, err, tc.i, tc.n, tc.ok)
		}
	}
}

func TestRenderFiguresWithoutCycles(t *testing.T) {
	rep := &corpus.Report{Version: corpus.Version, Rows: []corpus.Row{{
		Program:  "p",
		Variants: []corpus.Variant{{Name: "Manual"}, {Name: "Pensieve", Analyzed: true}},
	}}}
	var out bytes.Buffer
	if err := renderFigures(&out, rep, false, true, false, false, false, false); err != nil {
		t.Fatalf("Figure 7 alone needs no cycles, got %v", err)
	}
	if err := renderFigures(&out, rep, false, false, false, false, true, false); err == nil {
		t.Error("Figure 10 rendered from a report without dynamic runs")
	}
}

// TestCertTableRenders checks the certification table and the footer
// paperbench appends to it, on the one-kernel shard holding peterson.
func TestCertTableRenders(t *testing.T) {
	const shard, shards = 8, 9
	src, err := corpus.Shard(corpus.CertSource(), shard, shards)
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != 1 || src.Name(0) != "peterson" {
		t.Fatalf("shard %d/%d holds %d programs starting with %s, want peterson alone", shard, shards, src.Len(), src.Name(0))
	}
	var out bytes.Buffer
	opts := []fenceplace.Option{fenceplace.WithMaxStates(1 << 20), fenceplace.WithCacheDir("")}
	if _, err := runCert(context.Background(), &out, shard, shards, 1, opts, ""); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "peterson") || !strings.Contains(s, "certified") {
		t.Errorf("certification table incomplete:\n%s", s)
	}
	if !strings.Contains(s, "\nSC explorations: 1\n") {
		t.Errorf("certification table missing the warm-vs-cold footer:\n%s", s)
	}
}

func TestLitmusTable(t *testing.T) {
	var out bytes.Buffer
	ok, err := litmusTable(&out)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("unexpected litmus verdict:\n%s", out.String())
	}
	for _, name := range []string{"SB ", "SB+fences", "MP ", "LB ", "CoRR", "SB+RMW"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("litmus table lacks %q:\n%s", name, out.String())
		}
	}
}

// TestExitPaths runs the command in a child process and checks its exit
// code and, for runs that fail after telemetry is mounted, that the trace
// file was still finalized.
func TestExitPaths(t *testing.T) {
	if args := os.Getenv("PAPERBENCH_ARGS"); args != "" {
		os.Args = append([]string{"paperbench"}, strings.Fields(args)...)
		flag.CommandLine = flag.NewFlagSet("paperbench", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	trace := filepath.Join(t.TempDir(), "t.json")
	for _, tc := range []struct {
		args string
		code int
	}{
		{"-shard 1/2x -fig7", 2},
		{"-shard 1/2/3 -fig7", 2},
		{"-seeds 0 -fig10 -trace " + trace, 1},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestExitPaths$")
		cmd.Env = append(os.Environ(), "PAPERBENCH_ARGS="+tc.args, "FENCEPLACE_CACHE_DIR=")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != tc.code {
			t.Errorf("paperbench %s: %v, want exit %d\n%s", tc.args, err, tc.code, out)
		}
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Errorf("trace of the failed Figure 10 run is not valid JSON (%d bytes)", len(data))
	}
}
