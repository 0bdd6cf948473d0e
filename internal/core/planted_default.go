//go:build !dst_plantedbug

package core

// plantedMigrantStaysInS is set only by -tags dst_plantedbug (planted_bug.go).
const plantedMigrantStaysInS = false
