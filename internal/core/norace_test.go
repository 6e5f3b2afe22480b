//go:build !race

package core

const poolMissAllocs = 0
