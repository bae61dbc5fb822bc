package aggtree

import (
	"slices"

	"repro/internal/ids"
)

// childEntry is one row of a child table: a child's id and its latest
// versioned contribution.
type childEntry struct {
	id ids.ID
	c  contribution
}

// childTable is a vertex's child table — the latest contribution of each
// child — as a slice sorted by child id. Nearly half of all vertex states
// end with one child and four in five with at most three, where a slice
// costs its entries and nothing else; and everything that walks the table
// (the aggregate, the cancel fan-out, a replicated table's install) walks
// it in id order, so neither message order nor the order a floating-point
// SUM is folded in depends on map iteration. The zero value is empty.
type childTable []childEntry

// find returns the index id is at, or would be inserted at.
func (t childTable) find(id ids.ID) (int, bool) {
	return slices.BinarySearchFunc(t, id, func(e childEntry, id ids.ID) int { return e.id.Cmp(id) })
}

// get returns id's contribution, if it has one.
func (t childTable) get(id ids.ID) (contribution, bool) {
	if i, ok := t.find(id); ok {
		return t[i].c, true
	}
	return contribution{}, false
}

// put records c as id's contribution, replacing any earlier one.
func (t *childTable) put(id ids.ID, c contribution) {
	i, ok := t.find(id)
	if ok {
		(*t)[i].c = c
		return
	}
	*t = slices.Insert(*t, i, childEntry{id: id, c: c})
}

// clone returns a copy that shares nothing with t. It is never nil, which
// in a replMsg means "no table, one entry inline".
func (t childTable) clone() childTable {
	return append(make(childTable, 0, len(t)), t...)
}
