//go:build race

package core

// The race detector makes sync.Pool drop items at random, so each of a
// loop composition's two table lookups may miss the pooled coordinate
// buffer and the spline's pooled sort order. Each miss allocates the
// pooled slice header and its data: at most eight extra allocations
// per composition.
const poolMissAllocs = 8
