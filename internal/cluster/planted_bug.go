//go:build dst_plantedbug

package cluster

// The planted failover race, the regression test for the simulator's
// find, shrink and replay pipeline (internal/dst): a primary keeps a
// shard it fails to renew until it sees a successor (ShardLease.Step),
// and its fence check trusts that cached promotion instead of peeking at
// the authority (LeaseFence.Check). A partition that outlives the lease
// TTL lets the deposed primary keep journaling, which the simulator's
// fencing oracle must catch.
const plantedFencingBug = true
