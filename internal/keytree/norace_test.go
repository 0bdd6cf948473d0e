//go:build !race

package keytree

const raceEnabled = false
