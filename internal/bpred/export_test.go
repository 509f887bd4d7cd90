package bpred

// Push appends key to the ring without folding it, so the next hash through
// any predictor refolds the whole history; tests use it to build histories
// independently of a predictor.
func (h *History) Push(key uint64) {
	h.push(key)
	h.foldedBy = nil
}
