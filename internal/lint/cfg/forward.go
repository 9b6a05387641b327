package cfg

// Forward runs a forward dataflow analysis over g to its fixpoint and
// returns the in-state of every reached block.
//
// The entry block starts with state entry. transfer pushes a block's
// in-state through the block and returns one out-state per successor, in
// Succs order, so branch conditions can refine each edge separately. join
// merges an out-state into a successor's in-state (the zero S before the
// first visit) and reports whether the in-state grew. For termination, join
// must be monotone over a lattice of finite height.
//
// Reaching a block is tracked apart from its state: a block first reached
// with an empty state — an infeasible branch refined to nothing — is
// processed once, and after that it is re-queued only when its in-state
// grows. Treating "empty" as "never reached" would re-queue a loop inside
// such a branch forever.
func Forward[S any](g *CFG, entry S, transfer func(b *Block, in S) []S, join func(old, out S) (S, bool)) map[*Block]S {
	in := map[*Block]S{g.Entry: entry}
	reached := map[*Block]bool{g.Entry: true}
	queued := map[*Block]bool{g.Entry: true}
	work := []*Block{g.Entry}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		for i, out := range transfer(blk, in[blk]) {
			succ := blk.Succs[i]
			merged, grew := join(in[succ], out)
			if !grew && reached[succ] {
				continue
			}
			reached[succ] = true
			in[succ] = merged
			if !queued[succ] {
				queued[succ] = true
				work = append(work, succ)
			}
		}
	}
	return in
}
