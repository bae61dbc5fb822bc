package relq_test

import (
	"testing"
	"time"

	"repro/internal/anemone"
	"repro/internal/relq"
)

// TestGenerateLayout: a Flow table of the scan benchmark's size, as
// anemone.Generate builds it, has reached its row hint and holds its
// sealed blocks back to back per element width, column by column and in
// block order (relq's checkArena). anemone's TestStorageBudget holds the
// same table to its bytes a row.
func TestGenerateLayout(t *testing.T) {
	flow := anemone.Generate(anemone.Config{Seed: 1, Horizon: 72 * time.Hour, MeanFlowsPerDay: 10_000}, 0).Flow
	if flow.NumRows() < 8*relq.BlockSize || !relq.Compacted(flow) {
		t.Fatalf("a %d-row generated table did not reach its row hint", flow.NumRows())
	}
	relq.CheckArena(t, "a generated Flow table", flow)
}
