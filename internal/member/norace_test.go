//go:build !race

package member

const raceEnabled = false
