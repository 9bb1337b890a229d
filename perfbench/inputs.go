package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fenceplace/internal/frontend"
	"fenceplace/internal/ir"
	"fenceplace/internal/progs"
)

// twinDir holds the restricted-Go twins of hand-built corpus programs,
// relative to the root of the checkout the benchmark runs from.
const twinDir = "testdata/gosource"

// twin is one restricted-Go source whose lowering mirrors a hand-built
// corpus program at fixed parameters.
type twin struct {
	file   string
	orig   string       // hand-built corpus program it mirrors
	params progs.Params // parameters the original is built at
	src    []byte       // the canonical source
	ir     string       // ir.Format of the canonical lowering
}

// twinSpecs pairs each twin with its original; the twins hardcode these
// sizes, so each pair explores the same state space.
var twinSpecs = []twin{
	{file: "dekker.go", orig: "dekker", params: progs.Params{Threads: 2, Size: 2}},
	{file: "peterson.go", orig: "peterson", params: progs.Params{Threads: 2, Size: 2}},
	{file: "treiber.go", orig: "treiber", params: progs.Params{Threads: 2, Size: 1}},
	{file: "spinlock.go", orig: "spinlock", params: progs.Params{Threads: 2, Size: 2}},
}

// loadTwins reads and lowers the canonical twins.
func loadTwins() ([]*twin, error) {
	var out []*twin
	for _, spec := range twinSpecs {
		t := spec
		src, err := os.ReadFile(filepath.Join(twinDir, t.file))
		if err != nil {
			return nil, fmt.Errorf("reading twin (run from the repository root): %w", err)
		}
		p, err := frontend.Lower(t.file, src)
		if err != nil {
			return nil, fmt.Errorf("lowering %s: %w", t.file, err)
		}
		t.src, t.ir = src, ir.Format(p)
		out = append(out, &t)
	}
	return out, nil
}

// variant returns a byte-different rewrite of the twin's source that
// lowers to the same IR: some locals and parameters are renamed, comment
// lines and blank lines are inserted, and trailing blanks are added. It
// fails when the rewrite does not lower to the canonical IR, so a
// generator bug can never pass as a frontend bug or vice versa.
func (t *twin) variant(rng *rand.Rand) ([]byte, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, t.file, t.src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	tag := rng.Intn(1 << 20)
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		renameLocals(fd, rng, tag)
	}
	var buf bytes.Buffer
	if err := (&printer.Config{Mode: printer.TabIndent | printer.UseSpaces, Tabwidth: 8}).Fprint(&buf, fset, f); err != nil {
		return nil, err
	}
	var out strings.Builder
	for i, line := range strings.Split(buf.String(), "\n") {
		out.WriteString(line)
		if rng.Intn(4) == 0 {
			out.WriteString(strings.Repeat(" ", 1+rng.Intn(3)))
		}
		out.WriteByte('\n')
		if strings.HasSuffix(strings.TrimSpace(line), "{") {
			switch rng.Intn(3) {
			case 0:
				fmt.Fprintf(&out, "\t// variant %d, line %d\n", tag, i)
			case 1:
				out.WriteByte('\n')
			}
		}
	}
	v := []byte(out.String())
	p, err := frontend.Lower(t.file, v)
	if err != nil {
		return nil, fmt.Errorf("variant of %s does not lower: %w", t.file, err)
	}
	if got := ir.Format(p); got != t.ir {
		return nil, fmt.Errorf("variant of %s lowers to different IR", t.file)
	}
	return v, nil
}

// renameLocals renames about half of fd's parameters and := or var
// locals. Locals lower to registers, so their names never reach the IR.
func renameLocals(fd *ast.FuncDecl, rng *rand.Rand, tag int) {
	names := map[string]bool{}
	for _, fld := range fd.Type.Params.List {
		for _, n := range fld.Names {
			names[n.Name] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				for _, l := range s.Lhs {
					if id, ok := l.(*ast.Ident); ok {
						names[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			for _, id := range s.Names {
				names[id.Name] = true
			}
		}
		return true
	})
	delete(names, "_")
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	rename := map[string]string{}
	for _, n := range sorted {
		if rng.Intn(2) == 0 {
			rename[n] = fmt.Sprintf("%s_v%d", n, tag)
		}
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if nn, ok := rename[id.Name]; ok {
				id.Name = nn
			}
		}
		return true
	})
}

// certItem is one certification the certify workloads and the service
// traffic draw from.
type certItem struct {
	name     string      // display name, e.g. "dekker/s1", "dekker.go", "dekker/unfenced"
	meta     *progs.Meta // hand-built program (nil for twins)
	params   progs.Params
	twin     *twin
	unfenced bool // certify the legacy build itself: must be refuted
}

// unfencedKernels are the programs whose legacy build must be refuted
// under TSO (each needs a fence the legacy code lacks), in certification
// order, with the smallest size at which TSO breaks each one (chaselev's
// size-1 build happens to be SC-equivalent). At size 2 (fencecheck's
// clamp) lamport's and cilk5's legacy TSO spaces take 2 to 4 s each and
// seal the seen set under the default memory budget, which would make
// refutation, not cold SC exploration, the bulk of certify-cold and spill
// outside certify-spill.
var unfencedKernels = []struct {
	name string
	size int64
}{{"dekker", 1}, {"peterson", 1}, {"lamport", 1}, {"chaselev", 2}, {"cilk5", 1}}

// certItems lists certify-cold's inputs: every sync kernel at two threads
// and sizes 1 and 2, the Go twins, and the unfenced builds.
func certItems(twins []*twin) []*certItem {
	var items []*certItem
	for _, m := range progs.ByKind(progs.SyncKernel) {
		for _, size := range []int64{1, 2} {
			items = append(items, &certItem{
				name: fmt.Sprintf("%s/s%d", m.Name, size), meta: m,
				params: progs.Params{Threads: 2, Size: size},
			})
		}
	}
	for _, t := range twins {
		items = append(items, &certItem{name: t.file, twin: t, params: t.params})
	}
	for _, u := range unfencedKernels {
		items = append(items, &certItem{
			name: u.name + "/unfenced", meta: progs.ByName(u.name),
			params: progs.Params{Threads: 2, Size: u.size}, unfenced: true,
		})
	}
	return items
}

// manual instantiates the expert build, or nil when there is none.
func (c *certItem) manual() *ir.Program {
	if c.twin != nil || c.unfenced {
		return nil
	}
	p := c.params
	p.Manual = true
	return c.meta.Build(p)
}

// shuffled returns a seeded permutation of items.
func shuffled[T any](rng *rand.Rand, items []T) []T {
	out := append([]T(nil), items...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
