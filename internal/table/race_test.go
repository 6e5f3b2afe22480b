//go:build race

package table

// The race detector makes sync.Pool drop items at random, so a lookup
// may miss the pooled coordinate buffer and the spline's pooled sort
// order. Each miss allocates the pooled slice header and its data: at
// most four extra allocations per lookup.
const poolMissAllocs = 4
