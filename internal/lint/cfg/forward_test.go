package cfg

import (
	"go/ast"
	"go/token"
	"strings"
	"testing"
)

// intSet is a reflease-style state: a set of small values, copied on write,
// where the empty set is the nil map.
type intSet map[int]bool

func unionInts(old, out intSet) (intSet, bool) {
	grew := false
	for v := range out {
		if !old[v] {
			if !grew {
				cp := make(intSet, len(old)+len(out))
				for k := range old {
					cp[k] = true
				}
				old = cp
				grew = true
			}
			old[v] = true
		}
	}
	return old, grew
}

// countingTransfer wraps a transfer so a run that re-queues blocks without
// bound fails the test instead of hanging it.
func countingTransfer[S any](t *testing.T, runs map[*Block]int, f func(*Block, S) []S) func(*Block, S) []S {
	return func(b *Block, in S) []S {
		runs[b]++
		if runs[b] > 50 {
			t.Fatalf("block .%d (%s) transferred %d times: the fixpoint does not terminate", b.Index, b.Kind, runs[b])
		}
		return f(b, in)
	}
}

// TestForwardInfeasibleBranchLoop: the `x == 1` branch refines to the empty
// state, as an infeasible nil test does in reflease. The loop inside it is
// reached only with that empty state, so each of its blocks runs exactly
// once and the fixpoint ends.
func TestForwardInfeasibleBranchLoop(t *testing.T) {
	c, _ := build(t, "x := 0\nif x == 1 {\n\tfor i := 0; i < 10; i++ {\n\t\tx++\n\t}\n}\n_ = x")
	runs := map[*Block]int{}
	in := Forward(c, intSet{0: true}, countingTransfer(t, runs, func(b *Block, in intSet) []intSet {
		// Each value steps up, saturating at 3; the empty set stays empty.
		out := intSet{}
		for v := range in {
			out[min(v+1, 3)] = true
		}
		outs := make([]intSet, len(b.Succs))
		for i := range outs {
			outs[i] = out
		}
		if len(b.Succs) == 2 {
			if be, ok := b.Nodes[len(b.Nodes)-1].(*ast.BinaryExpr); ok && be.Op == token.EQL {
				outs[0] = nil // the true edge is infeasible
			}
		}
		return outs
	}), unionInts)

	loopBlocks := 0
	for _, b := range c.Blocks {
		if b.Kind != "if.then" && !strings.HasPrefix(b.Kind, "for.") {
			continue
		}
		loopBlocks++
		if runs[b] != 1 {
			t.Errorf("block .%d (%s) ran %d times, want 1", b.Index, b.Kind, runs[b])
		}
		if len(in[b]) != 0 {
			t.Errorf("block .%d (%s) has in-state %v inside the infeasible branch", b.Index, b.Kind, in[b])
		}
	}
	if loopBlocks != 5 {
		t.Fatalf("found %d blocks in the branch, want 5 (if.then, for.loop, for.body, for.post, for.done)", loopBlocks)
	}
	if got := in[c.Exit]; len(got) != 1 || !got[2] {
		t.Errorf("exit state %v, want {2} (entry and if.done each step once)", got)
	}
}

// TestForwardIrreducibleGoto: `goto B` enters the A→B→A loop in the
// middle, so the loop has two entries and no single header. A reaching-
// blocks analysis must still terminate, with the exit state holding exactly
// the blocks on some entry-to-exit path.
func TestForwardIrreducibleGoto(t *testing.T) {
	c, _ := build(t, "x := 0\nif x > 0 {\n\tgoto B\n}\nA:\nx++\nB:\nx--\nif x < 10 {\n\tgoto A\n}\n_ = x")
	runs := map[*Block]int{}
	in := Forward(c, uint64(0), countingTransfer(t, runs, func(b *Block, in uint64) []uint64 {
		out := in | 1<<b.Index
		outs := make([]uint64, len(b.Succs))
		for i := range outs {
			outs[i] = out
		}
		return outs
	}), func(old, out uint64) (uint64, bool) { return old | out, old|out != old })

	// Blocks reachable from the entry that can reach the exit.
	fwd := reach(c)
	toExit := map[*Block]bool{c.Exit: true}
	for grew := true; grew; {
		grew = false
		for _, b := range c.Blocks {
			for _, s := range b.Succs {
				if toExit[s] && !toExit[b] {
					toExit[b] = true
					grew = true
				}
			}
		}
	}
	var want uint64
	for b := range fwd {
		if toExit[b] && b != c.Exit {
			want |= 1 << b.Index
		}
	}
	if got := in[c.Exit]; got != want {
		t.Errorf("exit state %b, want %b", got, want)
	}
	var labels int
	for _, b := range c.Blocks {
		if strings.HasPrefix(b.Kind, "label.") {
			labels++
			if runs[b] == 0 {
				t.Errorf("labelled block .%d (%s) never analysed", b.Index, b.Kind)
			}
		}
	}
	if labels != 2 {
		t.Fatalf("found %d labelled blocks, want 2", labels)
	}
}
