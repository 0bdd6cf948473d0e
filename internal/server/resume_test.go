package server

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"testing"

	"groupkey/internal/keycrypt"
	"groupkey/internal/member"
)

// testClientState returns the State blob of an admitted session in group 7.
func testClientState(t testing.TB) []byte {
	t.Helper()
	pub, _, err := ed25519.GenerateKey(keycrypt.NewDeterministicReader(5))
	if err != nil {
		t.Fatal(err)
	}
	indiv := keycrypt.Random(40, 3)
	mem := member.New(12, indiv)
	mem.RecordExpected(5)
	c := &Client{group: 7, epoch: 19, indiv: indiv, serverKey: pub, mem: mem}
	blob, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// reencode writes a decoded state back out as a Client would.
func reencode(st *ClientState) ([]byte, error) {
	c := &Client{group: st.Group, epoch: st.Epoch, indiv: st.Indiv, serverKey: st.ServerKey, mem: st.Member}
	return c.State()
}

// TestClientStateRoundTrip: a client state has one layout. It round-trips
// with its group, and a version-1 blob (the same fields without the group
// word) is rejected.
func TestClientStateRoundTrip(t *testing.T) {
	blob := testClientState(t)
	st, err := DecodeClientState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if st.Group != 7 || st.Epoch != 19 || st.Member.ID() != 12 || st.Indiv.ID != 40 {
		t.Fatalf("decoded group=%d epoch=%d member=%d indiv=%v", st.Group, st.Epoch, st.Member.ID(), st.Indiv.ID)
	}
	again, err := reencode(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("decode then encode is not the identity")
	}

	const groupOff = 8 // magic(4) + version(4)
	v1 := append([]byte(clientStateMagic), 0, 0, 0, 1)
	v1 = append(v1, blob[groupOff+4:]...)
	for name, b := range map[string][]byte{
		"version 1":  v1,
		"version 3":  binary.BigEndian.AppendUint32([]byte(clientStateMagic), 3),
		"bad magic":  append([]byte("GKC0"), blob[4:]...),
		"truncated":  blob[:groupOff+20],
		"no member":  blob[:len(blob)-len(st.Member.Snapshot())],
		"trailing":   append(append([]byte{}, blob...), 0),
		"empty blob": nil,
	} {
		if _, err := DecodeClientState(b); !errors.Is(err, errBadClientState) {
			t.Errorf("%s: err=%v, want errBadClientState", name, err)
		}
	}
}

// FuzzDecodeClientState: no input panics the decoder (nor member.Restore
// behind it), and an accepted input re-encodes to a blob that is accepted
// again.
func FuzzDecodeClientState(f *testing.F) {
	blob := testClientState(f)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeClientState(data)
		if err != nil {
			return
		}
		again, err := reencode(st)
		if err != nil {
			t.Fatalf("accepted state cannot re-encode: %v", err)
		}
		if _, err := DecodeClientState(again); err != nil {
			t.Fatalf("re-encoding of accepted state rejected: %v", err)
		}
	})
}
