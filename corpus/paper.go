package corpus

import (
	"fmt"
	"strings"

	"fenceplace/internal/delayset"
	"fenceplace/internal/passes"
	"fenceplace/internal/progs"
	"fenceplace/internal/stats"
)

// The two tables below are not views over a Report: they render facts of
// the corpus kernels and of the §2.4 worked example, which no corpus run
// varies.

func mark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// Table2 regenerates the paper's Table II: the signature breakdown of the
// nine synchronization kernels.
func Table2() string {
	t := stats.NewTable("kernel", "addr", "ctrl", "pure addr", "source")
	pureAddrAnywhere := false
	for _, m := range progs.ByKind(progs.SyncKernel) {
		sess := passes.NewSession(m.Default())
		sig := sess.Signatures()
		t.Add(m.Name, mark(sig.HasAddress()), mark(sig.HasControl()),
			mark(sig.HasPureAddress()), m.Source)
		if sig.HasPureAddress() {
			pureAddrAnywhere = true
		}
	}
	out := "Table II: acquire signatures found in the synchronization kernels\n" + t.String()
	if !pureAddrAnywhere {
		out += "No kernel contains a pure-address acquire (matches the paper).\n"
	} else {
		out += "WARNING: a pure-address acquire appeared; the paper found none.\n"
	}
	return out
}

// Fig2 regenerates the §2.4 worked example via exact delay-set analysis.
func Fig2() string {
	p, isAcq := delayset.Fig2()
	delays := delayset.Delays(p)
	fullFences := delayset.MinimizeFences(delays)
	pruned := delayset.Prune(delays, isAcq)
	prunedFences := delayset.MinimizeFences(pruned)

	var sb strings.Builder
	sb.WriteString("Figure 2 (worked example, §2.4): exact Shasha-Snir delay-set analysis\n")
	fmt.Fprintf(&sb, "delay edges (%d): ", len(delays))
	for i, d := range delays {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(d.String())
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "full fence placement: %d fences at %v (paper: 5, F1..F5)\n", len(fullFences), fullFences)
	fmt.Fprintf(&sb, "pruned delay edges (%d): ", len(pruned))
	for i, d := range pruned {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(d.String())
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "pruned fence placement: %d fences at %v (paper: 2, F2 and F4)\n", len(prunedFences), prunedFences)
	return sb.String()
}
