//go:build dst_plantedbug

package core

// The planted migration bug, a regression test for the simulator's find,
// shrink and replay pipeline (internal/dst): a TT migrant is left out of
// S's departure batch, so it joins L while its S leaf stays. When it later
// leaves, only S lets it go and L keeps it, which the simulator's
// forward-secrecy oracle must catch.
const plantedMigrantStaysInS = true
