package keytree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"groupkey/internal/keycrypt"
)

// marshalPayload flattens a payload to bytes: the determinism contract is
// that the engine's output is byte-identical for every worker count (the
// golden digests pin it across versions).
func marshalPayload(tb testing.TB, p *Payload) []byte {
	tb.Helper()
	var buf bytes.Buffer
	for _, it := range p.AllItems() {
		fmt.Fprintf(&buf, "%d|%d|", it.Kind, it.Level)
		buf.Write(it.Wrapped.Marshal())
		for _, m := range it.Receivers {
			fmt.Fprintf(&buf, "|%d", m)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// fuzzBatches generates a reproducible churn schedule: joins, leaves and
// replacements (joins paired with leaves) of varying sizes.
func fuzzBatches(seed int64, initial, rounds int) []Batch {
	rnd := rand.New(rand.NewSource(seed))
	next := MemberID(1)
	var present []MemberID
	var batches []Batch

	prime := Batch{}
	for i := 0; i < initial; i++ {
		prime.Joins = append(prime.Joins, next)
		present = append(present, next)
		next++
	}
	batches = append(batches, prime)

	for r := 0; r < rounds; r++ {
		b := Batch{}
		nJoin := rnd.Intn(8)
		nLeave := rnd.Intn(8)
		if nLeave > len(present) {
			nLeave = len(present)
		}
		rnd.Shuffle(len(present), func(i, j int) { present[i], present[j] = present[j], present[i] })
		b.Leaves = append(b.Leaves, present[:nLeave]...)
		present = present[nLeave:]
		for i := 0; i < nJoin; i++ {
			b.Joins = append(b.Joins, next)
			present = append(present, next)
			next++
		}
		batches = append(batches, b)
	}
	return batches
}

// TestRekeyParallelMatchesSerial drives the engine emitting inline (one
// worker) and at worker counts 1, 2 and 8 over identical fuzzed churn with
// identical entropy streams, asserting every payload — items, joiner
// items, kinds, levels, receivers and ciphertext bytes — is identical.
func TestRekeyParallelMatchesSerial(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				serial, err := New(3, WithRand(keycrypt.NewDeterministicReader(uint64(seed))), WithWrapWorkers(1))
				if err != nil {
					t.Fatal(err)
				}
				engine, err := New(3, WithRand(keycrypt.NewDeterministicReader(uint64(seed))), WithWrapWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				for i, b := range fuzzBatches(seed, 40, 30) {
					ps, err := serial.Rekey(b)
					if err != nil {
						t.Fatalf("batch %d: serial: %v", i, err)
					}
					pe, err := engine.Rekey(b)
					if err != nil {
						t.Fatalf("batch %d: engine: %v", i, err)
					}
					if len(ps.Items) != len(pe.Items) || len(ps.JoinerItems) != len(pe.JoinerItems) {
						t.Fatalf("batch %d: item counts diverge: serial %d+%d, engine %d+%d",
							i, len(ps.Items), len(ps.JoinerItems), len(pe.Items), len(pe.JoinerItems))
					}
					bs, be := marshalPayload(t, ps), marshalPayload(t, pe)
					if !bytes.Equal(bs, be) {
						t.Fatalf("batch %d: payload bytes diverge (joins=%d leaves=%d)", i, len(b.Joins), len(b.Leaves))
					}
				}
				if sw, ew := serial.Stats().KeysWrapped, engine.Stats().KeysWrapped; sw != ew {
					t.Fatalf("KeysWrapped diverge: serial %d, engine %d", sw, ew)
				}
			})
		}
	}
}

// TestRekeyReplacementDeterminism covers the pure-replacement regime (J=L,
// Phase 1) specifically, where joiners reuse vacated leaf slots.
func TestRekeyReplacementDeterminism(t *testing.T) {
	const n = 64
	mk := func(opts ...Option) *Tree {
		tr, err := New(4, append([]Option{WithRand(keycrypt.NewDeterministicReader(99))}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		prime := Batch{}
		for i := 1; i <= n; i++ {
			prime.Joins = append(prime.Joins, MemberID(i))
		}
		if _, err := tr.Rekey(prime); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	serial := mk(WithWrapWorkers(1))
	engine := mk(WithWrapWorkers(8))
	next := MemberID(n + 1)
	for round := 0; round < 10; round++ {
		b := Batch{}
		for j := 0; j < 6; j++ {
			b.Leaves = append(b.Leaves, MemberID(round*6+j+1))
			b.Joins = append(b.Joins, next)
			next++
		}
		ps, err := serial.Rekey(b)
		if err != nil {
			t.Fatal(err)
		}
		pe, err := engine.Rekey(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalPayload(t, ps), marshalPayload(t, pe)) {
			t.Fatalf("round %d: replacement payloads diverge", round)
		}
	}
}
