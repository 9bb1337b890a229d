package corpus_test

// Tests of the public corpus API, exercised exactly as an external caller
// would use it: shard the source, run the shards, round-trip the reports
// through JSON, merge, and demand tables byte-identical to the unsharded
// run.

import (
	"bytes"
	"context"
	"errors"
	"sort"
	"testing"

	"fenceplace"
	"fenceplace/corpus"

	"fenceplace/internal/progs"
)

// TestShardPartition pins the partition law: the n shards of a source are
// disjoint, cover it, and keep the members' names.
func TestShardPartition(t *testing.T) {
	src := corpus.EvalSource()
	for _, n := range []int{1, 2, 3, src.Len(), src.Len() + 3} {
		var names []string
		total := 0
		for i := 1; i <= n; i++ {
			sh, err := corpus.Shard(src, i, n)
			if err != nil {
				t.Fatalf("Shard(%d, %d): %v", i, n, err)
			}
			total += sh.Len()
			for j := 0; j < sh.Len(); j++ {
				names = append(names, sh.Name(j))
			}
		}
		if total != src.Len() {
			t.Fatalf("n=%d: shards cover %d members, want %d", n, total, src.Len())
		}
		var want []string
		for j := 0; j < src.Len(); j++ {
			want = append(want, src.Name(j))
		}
		sort.Strings(names)
		sort.Strings(want)
		for i := range want {
			if names[i] != want[i] {
				t.Fatalf("n=%d: shard union mismatch at %d: %s vs %s", n, i, names[i], want[i])
			}
		}
	}
	for _, bad := range [][2]int{{0, 2}, {3, 2}, {1, 0}, {-1, 4}} {
		if _, err := corpus.Shard(src, bad[0], bad[1]); err == nil {
			t.Errorf("Shard(%d, %d) accepted", bad[0], bad[1])
		}
	}
}

// TestShardMergeIdenticalTables is the acceptance check for cross-process
// sharding: two complementary shard reports, round-tripped through the
// versioned JSON codec and merged, must render tables byte-identical to an
// unsharded run — and encode to byte-identical JSON.
func TestShardMergeIdenticalTables(t *testing.T) {
	runner := corpus.Runner{Seeds: 1} // evalReport's configuration
	ctx := context.Background()
	full := evalReport(t)

	var merged *corpus.Report
	for i := 1; i <= 2; i++ {
		sh, err := corpus.Shard(corpus.EvalSource(), i, 2)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := runner.Run(ctx, sh)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Shard != i || rep.Shards != 2 {
			t.Errorf("shard %d report stamped %d/%d", i, rep.Shard, rep.Shards)
		}
		// Round-trip through the wire format: what merges is what ships.
		var buf bytes.Buffer
		if err := rep.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		dec, err := corpus.DecodeJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			merged = dec
		} else if err := merged.Merge(dec); err != nil {
			t.Fatal(err)
		}
	}

	type render struct {
		name string
		fn   func(*corpus.Report) string
	}
	renders := []render{
		{"Fig7", corpus.Fig7},
		{"Fig8", corpus.Fig8},
		{"Fig9", corpus.Fig9},
		{"ManualTable", corpus.ManualTable},
	}
	for _, r := range renders {
		if got, want := r.fn(merged), r.fn(full); got != want {
			t.Errorf("%s from merged shards differs from unsharded run:\n--- merged ---\n%s\n--- full ---\n%s", r.name, got, want)
		}
	}
	g10, err := corpus.Fig10(merged)
	if err != nil {
		t.Fatal(err)
	}
	w10, err := corpus.Fig10(full)
	if err != nil {
		t.Fatal(err)
	}
	if g10 != w10 {
		t.Errorf("Fig10 from merged shards differs from unsharded run")
	}

	var mj, fj bytes.Buffer
	if err := merged.EncodeJSON(&mj); err != nil {
		t.Fatal(err)
	}
	if err := full.EncodeJSON(&fj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mj.Bytes(), fj.Bytes()) {
		t.Error("merged report JSON differs from the unsharded report's")
	}
}

// TestMergeRejections pins the merge guards: version skew, source skew and
// overlapping indices must all refuse.
func TestMergeRejections(t *testing.T) {
	mk := func(source string, idx ...int) *corpus.Report {
		r := &corpus.Report{Version: corpus.Version, Source: source}
		for _, i := range idx {
			r.Rows = append(r.Rows, corpus.Row{Index: i, Program: "p"})
		}
		return r
	}
	a := mk("eval", 0, 2)
	if err := a.Merge(mk("eval", 1, 3)); err != nil {
		t.Fatalf("disjoint merge refused: %v", err)
	}
	for i, r := range a.Rows {
		if r.Index != i {
			t.Fatalf("merged rows not sorted by index: %v at %d", r.Index, i)
		}
	}
	if err := a.Merge(mk("eval", 2)); err == nil {
		t.Error("overlapping index merged")
	}
	if err := a.Merge(mk("cert", 9)); err == nil {
		t.Error("cross-source merge accepted")
	}
	bad := mk("eval", 9)
	bad.Version = corpus.Version + 1
	if err := a.Merge(bad); err == nil {
		t.Error("version-skewed merge accepted")
	}

	var buf bytes.Buffer
	if err := bad.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := corpus.DecodeJSON(&buf); err == nil {
		t.Error("decoder accepted a future version")
	}
}

// TestRunnerCertifies runs the full pipeline — analysis, verification,
// certification against the shared SC baseline — over a single-program
// source and checks the resulting row's plain data.
func TestRunnerCertifies(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "")
	m := progs.ByName("dekker")
	pp := m.Defaults
	pp.Threads = 2
	pp.Size = 1
	pm := pp
	pm.Manual = true

	runner := corpus.Runner{
		Certify: true,
		Workers: 1,
		Options: []fenceplace.Option{fenceplace.WithMaxStates(1 << 20)},
	}
	rep, err := runner.Run(context.Background(), corpus.SingleSource("dekker", m.Build(pp), m.Build(pm)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rep.Rows))
	}
	row := rep.Rows[0]
	if len(row.Variants) != 4 {
		t.Fatalf("got %d variants, want 4 (Manual + 3 strategies)", len(row.Variants))
	}
	for _, v := range row.Variants {
		if v.Cert == nil {
			t.Fatalf("%s: no certification", v.Name)
		}
		if v.Cert.Status != corpus.CertCertified {
			t.Errorf("%s: %s (%s)", v.Name, v.Cert.Status, v.Cert.Err)
		}
		if (v.Name == "Manual") == v.Analyzed {
			t.Errorf("%s: analyzed flag %v", v.Name, v.Analyzed)
		}
	}
	if s := corpus.CertTable(rep); !bytes.Contains([]byte(s), []byte("certified")) {
		t.Errorf("cert table missing verdicts:\n%s", s)
	}
}

// TestRunnerCancelled pins the driver's context behavior.
func TestRunnerCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runner := corpus.Runner{}
	if _, err := runner.Run(ctx, corpus.EvalSource()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
	}
}
