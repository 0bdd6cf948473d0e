//go:build !dst_plantedbug

package cluster

// plantedFencingBug is set only by -tags dst_plantedbug (planted_bug.go).
const plantedFencingBug = false
