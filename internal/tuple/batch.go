package tuple

// Batch is a run of tuple references paired with their routing hashes — the
// unit the batched operator engine moves through split tables, exchanges,
// and hash-table probes. Tuples holds pointers, not rows: a batch never
// copies a tuple, it names one that lives in storage someone else owns (a
// relation or temp-file page, a hash table's eviction slice, or a worker's
// own scratch). The Hashes column sits beside it so inner loops can filter
// on the 8-byte hash and dereference a tuple only when it qualifies.
//
// A Batch is single-owner: exactly one goroutine appends to it, and once it
// is handed off (delivered through an exchange) only the receiver reads it.
// The referenced tuples must stay unmodified until the receiver is done; in
// the engine that window ends at the phase barrier (see DESIGN.md §6,
// "Reference-passing exchange").
type Batch struct {
	Tuples []*Tuple
	Hashes []uint64
}

// Len returns the number of tuples in the batch.
func (b *Batch) Len() int { return len(b.Tuples) }

// Reset empties the batch, retaining the backing arrays for reuse. The
// stale references are cleared so a recycled batch does not keep the pages
// they point into reachable.
func (b *Batch) Reset() {
	clear(b.Tuples)
	b.Tuples = b.Tuples[:0]
	b.Hashes = b.Hashes[:0]
}

// Append adds a reference to t and its hash to the batch. The tuple itself
// is not copied: t must stay valid and unmodified for as long as the batch
// (or whoever it is handed to) may read it.
func (b *Batch) Append(t *Tuple, h uint64) {
	b.Tuples = append(b.Tuples, t)
	b.Hashes = append(b.Hashes, h)
}
