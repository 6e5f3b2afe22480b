//go:build !race

package table

const poolMissAllocs = 0
