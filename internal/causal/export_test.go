package causal

// SetMaxTrees lowers a's retained-tree cap, so a short run reaches
// eviction. Call it before the first event.
func SetMaxTrees(a *Assembler, n int) { a.maxTrees = n }
