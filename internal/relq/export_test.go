package relq

// CheckArena is checkArena, and Compacted whether t reached the row hint
// at which it compacts its blocks, for the tests of package relq_test.
var CheckArena = checkArena

func Compacted(t *Table) bool { return t.hint > 0 && t.rows >= t.hint }
