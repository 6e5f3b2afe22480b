//go:build !race

package sim

const (
	raceEnabled    = false
	poolMissAllocs = 0
)
