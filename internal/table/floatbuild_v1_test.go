//go:build amd64 && !amd64.v2

package table

// exactFloatBuild reports a build whose float64 arithmetic matches the
// one TestBuiltTablesBitIdentical's sums were recorded on: amd64 at
// GOAMD64=v1, which never fuses a multiply and an add.
const exactFloatBuild = true
