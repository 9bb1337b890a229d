package mc

import (
	"reflect"
	"testing"

	"fenceplace/internal/ir"
	"fenceplace/internal/tso"
)

// sbProgram builds the store-buffering litmus program deterministically —
// the fixed input behind the golden key vectors.
func sbProgram() *ir.Program {
	pb := ir.NewProgram("sb")
	x := pb.Global("x", 1)
	y := pb.Global("y", 1)
	o0 := pb.Global("o0", 1)
	o1 := pb.Global("o1", 1)
	t0 := pb.Func("t0", 0)
	t0.Store(x, t0.Const(1))
	t0.Store(o0, t0.Load(y))
	t0.RetVoid()
	t1 := pb.Func("t1", 0)
	t1.Store(y, t1.Const(1))
	t1.Store(o1, t1.Load(x))
	t1.RetVoid()
	return pb.MustBuild()
}

// spawnProgram is a second fixed input: main spawning a worker, with a
// fence, exercising calls, spawns and branch targets in the key preimage.
func spawnProgram() *ir.Program {
	pb := ir.NewProgram("spawny")
	g := pb.Global("g", 2)
	w := pb.Func("worker", 1)
	w.StoreIdx(g, w.Param(0), w.Const(7))
	w.RetVoid()
	m := pb.Func("main", 0)
	tid := m.Spawn("worker", m.Const(0))
	m.Fence(ir.FenceFull)
	m.Join(tid)
	m.RetVoid()
	pb.SetMain("main")
	return pb.MustBuild()
}

// TestBaselineKeyGolden pins the canonical key derivation to fixed hex
// vectors: any process, on any machine, hashing these programs must derive
// exactly these keys, or warm-starting across processes silently breaks.
// If the key schema changes intentionally, bump keySchema and regenerate.
func TestBaselineKeyGolden(t *testing.T) {
	cases := []struct {
		name    string
		prog    *ir.Program
		threads []string
		want    string
	}{
		{"sb-threads", sbProgram(), []string{"t0", "t1"}, "22f0a2f83a80d6ddd66003de175a6be8"},
		{"sb-main", sbProgram(), nil, "604b3b9534ec1b57939a285c4f8f0a04"},
		{"spawny", spawnProgram(), nil, "bba20beb75d83376e0705742dd9ebb9f"},
	}
	// Regenerate the vectors with `go test -run BaselineKeyGolden -v` after
	// an intentional keySchema bump.
	for _, tc := range cases {
		key := BaselineKey(tc.prog, tc.threads, Config{})
		if key.String() != tc.want {
			t.Errorf("%s: key %s, want golden %s", tc.name, key, tc.want)
		}
	}
}

// TestBaselineKeyDeterminismAndSensitivity: two independent builds of one
// program share a key; semantic differences (an extra fence, a different
// thread set, a different memory cap) change it; search-shaping config
// (workers, budget, seen-set mode, POR, buffer capacity) does not.
func TestBaselineKeyDeterminismAndSensitivity(t *testing.T) {
	base := BaselineKey(sbProgram(), []string{"t0", "t1"}, Config{})
	if again := BaselineKey(sbProgram(), []string{"t0", "t1"}, Config{}); again != base {
		t.Fatalf("independent builds of one program disagree: %s vs %s", base, again)
	}

	// Search-shaping config fields must not perturb the key.
	for name, cfg := range map[string]Config{
		"workers":   {Workers: 3},
		"budget":    {MaxStates: 1 << 10},
		"exactseen": {ExactSeen: true},
		"nopor":     {NoPOR: true},
		"buffercap": {BufferCap: 2},
		"mode":      {Mode: tso.TSO}, // a baseline is SC by definition
	} {
		if k := BaselineKey(sbProgram(), []string{"t0", "t1"}, cfg); k != base {
			t.Errorf("%s changed the key: %s vs %s", name, k, base)
		}
	}

	// Semantic inputs must perturb it.
	if k := BaselineKey(sbProgram(), []string{"t1", "t0"}, Config{}); k == base {
		t.Error("thread order did not change the key")
	}
	if k := BaselineKey(sbProgram(), []string{"t0", "t1"}, Config{MemoryCap: 1 << 10}); k == base {
		t.Error("memory cap did not change the key")
	}
	fenced := sbProgram()
	fn := fenced.Fn("t0")
	fn.Blocks[0].Insert(1, &ir.Instr{Kind: ir.Fence, Imm: int64(ir.FenceFull)})
	fenced.Finalize()
	if k := BaselineKey(fenced, []string{"t0", "t1"}, Config{}); k == base {
		t.Error("an inserted fence did not change the key")
	}

	// Names are metadata: a renamed clone keys identically.
	clone, _, _ := sbProgram().Clone()
	clone.Name = "renamed"
	if k := BaselineKey(clone, []string{"t0", "t1"}, Config{}); k != base {
		t.Errorf("program rename changed the key: %s vs %s", k, base)
	}
}

// roundTrip marshals a baseline and decodes it back against the same
// inputs, failing the test on any mismatch.
func roundTrip(t *testing.T, b *Baseline) *Baseline {
	t.Helper()
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal %s: %v", b.Prog.Name, err)
	}
	got, err := UnmarshalBaseline(b.Prog, b.ThreadFns, b.Cfg, data)
	if err != nil {
		t.Fatalf("unmarshal %s: %v", b.Prog.Name, err)
	}
	if got.SC.Visited != b.SC.Visited {
		t.Errorf("%s: visited %d, want %d", b.Prog.Name, got.SC.Visited, b.SC.Visited)
	}
	if !reflect.DeepEqual(got.SC.Outcomes, b.SC.Outcomes) {
		t.Errorf("%s: outcome sets disagree after round trip", b.Prog.Name)
	}
	if got.SC.Truncated {
		t.Errorf("%s: decoded baseline claims truncation", b.Prog.Name)
	}
	if got.Cfg.Mode != tso.SC {
		t.Errorf("%s: decoded baseline config is not SC", b.Prog.Name)
	}
	return got
}

// TestBaselineCodecRoundTrip explores small programs and pins the codec:
// encode → decode reproduces the exact outcome set and visit count, and
// the encoding itself is deterministic (sorted keys), so two processes
// storing the same baseline write identical bytes.
func TestBaselineCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		prog    *ir.Program
		threads []string
	}{
		{sbProgram(), []string{"t0", "t1"}},
		{spawnProgram(), nil},
	} {
		b, err := NewBaseline(tc.prog, tc.threads, Config{})
		if err != nil {
			t.Fatalf("baseline %s: %v", tc.prog.Name, err)
		}
		if len(b.SC.Outcomes) == 0 {
			t.Fatalf("%s: baseline with no outcomes", tc.prog.Name)
		}
		roundTrip(t, b)

		d1, _ := b.MarshalBinary()
		d2, _ := b.MarshalBinary()
		if string(d1) != string(d2) {
			t.Errorf("%s: non-deterministic encoding", tc.prog.Name)
		}
	}
}

// TestBaselineCodecCorruption: a damaged record must decode to an error —
// never a panic, never a silently wrong baseline. Truncations at every
// prefix length and single-bit flips across the whole record are exercised;
// flips must either fail decoding or decode without panicking (the store's
// checksum layer is what rejects them — this guards the codec itself).
func TestBaselineCodecCorruption(t *testing.T) {
	b, err := NewBaseline(sbProgram(), []string{"t0", "t1"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	decode := func(d []byte) (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decoder panicked on corrupt input: %v", r)
			}
		}()
		_, err = UnmarshalBaseline(b.Prog, b.ThreadFns, b.Cfg, d)
		return err
	}

	for n := 0; n < len(data); n++ {
		if decode(data[:n]) == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	for i := range data {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), data...)
			mut[i] ^= bit
			decode(mut) // must not panic; error or benign decode both fine
		}
	}
	if decode(append(append([]byte(nil), data...), 0)) == nil {
		t.Error("trailing byte decoded successfully")
	}
	if decode([]byte("FPB\x02")) == nil {
		t.Error("future version decoded successfully")
	}
}
