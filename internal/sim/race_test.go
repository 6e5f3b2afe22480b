//go:build race

package sim

// The race detector makes sync.Pool drop items at random, so a run may
// miss the pooled dense workspaces. Each run takes two of them, and a
// miss allocates the matrix header and its data: at most four extra
// allocations per run.
const (
	raceEnabled    = true
	poolMissAllocs = 4
)
