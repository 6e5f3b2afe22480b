//go:build !amd64 || amd64.v2

package table

// exactFloatBuild is false on every other build: other architectures
// and the higher GOAMD64 levels may fuse multiply-adds, so their
// rounding may differ from the recorded sums'.
const exactFloatBuild = false
