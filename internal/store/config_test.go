package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestSchemeConfigRoundTrip encodes and decodes every field combination
// the create record can carry, planner flag included.
func TestSchemeConfigRoundTrip(t *testing.T) {
	cases := []SchemeConfig{
		{Kind: SchemeOneTree},
		{Kind: SchemeOneTree, Planner: true},
		{Kind: SchemeNaive, Degree: 8},
		{Kind: SchemeTT, SPeriodK: 7, Planner: true},
		{Kind: SchemeQT, SPeriodK: 1},
		{Kind: SchemeLossHomog, LossBounds: []float64{0.01, 0.2}, Planner: true},
		{Kind: SchemeRandomMultiTree, Trees: 3, Degree: 2},
	}
	for _, want := range cases {
		got, err := decodeSchemeConfig(want.encode())
		if err != nil {
			t.Fatalf("decode(%+v): %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed the config: got %+v, want %+v", got, want)
		}
	}
}

// TestSchemeConfigRejectsPrePlannerRecord: a create record in the
// pre-planner layout (ending right after the loss bounds) is rejected, as
// are one without the replay rule, one of another rule and a padded one.
func TestSchemeConfigRejectsPrePlannerRecord(t *testing.T) {
	for _, c := range []SchemeConfig{
		{Kind: SchemeTT, SPeriodK: 4},
		{Kind: SchemeLossHomog, LossBounds: []float64{0.05}},
	} {
		enc := c.encode()
		if _, err := decodeSchemeConfig(enc[:len(enc)-2]); err == nil {
			t.Fatalf("pre-planner record for %+v decoded", c)
		}
		if _, err := decodeSchemeConfig(enc[:len(enc)-1]); err == nil || !strings.Contains(err.Error(), "replay rule 0") {
			t.Fatalf("rule-0 record for %+v: err=%v, want replay rule 0", c, err)
		}
		for _, rule := range []byte{1, 3} {
			other := append(enc[:len(enc)-1:len(enc)-1], rule)
			want := fmt.Sprintf("replay rule %d", rule)
			if _, err := decodeSchemeConfig(other); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("rule-%d record for %+v: err=%v, want %s", rule, c, err, want)
			}
		}
		if _, err := decodeSchemeConfig(append(enc, 0)); err == nil {
			t.Fatalf("over-long record for %+v decoded", c)
		}
	}
}

// TestSnapshotPlainRoundTrip covers the snapshot envelope: seq, nextID
// and the scheme blob survive a round trip, and a version-2 envelope
// (which carried a scheme-config section) is rejected.
func TestSnapshotPlainRoundTrip(t *testing.T) {
	blob := []byte("scheme-state")
	seq, nextID, gotBlob, err := decodeSnapshotPlain(encodeSnapshotPlain(42, 99, blob))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || nextID != 99 || !bytes.Equal(gotBlob, blob) {
		t.Fatalf("header or blob mangled: seq=%d nextID=%d blob=%q", seq, nextID, gotBlob)
	}

	v2 := v2SnapshotPlain(7, 8, SchemeConfig{Kind: SchemeTT, SPeriodK: 3, Planner: true}, blob)
	if _, _, _, err := decodeSnapshotPlain(v2); !errors.Is(err, errBadSnapshot) || !strings.Contains(err.Error(), "unsupported version 2") {
		t.Fatalf("version-2 snapshot: err=%v, want errBadSnapshot: unsupported version 2", err)
	}
	for name, b := range map[string][]byte{
		"empty":     nil,
		"bad magic": append([]byte("XXXX"), encodeSnapshotPlain(1, 2, blob)[4:]...),
		"truncated": encodeSnapshotPlain(1, 2, nil)[:20],
	} {
		if _, _, _, err := decodeSnapshotPlain(b); !errors.Is(err, errBadSnapshot) {
			t.Errorf("%s: err=%v, want errBadSnapshot", name, err)
		}
	}
}

// v2SnapshotPlain builds a version-2 envelope, which carried a
// cfgLen-prefixed scheme-config section before the blob.
func v2SnapshotPlain(seq, nextID uint64, cfg SchemeConfig, blob []byte) []byte {
	enc := cfg.encode()
	v2 := []byte(snapMagic)
	v2 = binary.BigEndian.AppendUint32(v2, 2)
	v2 = binary.BigEndian.AppendUint64(v2, seq)
	v2 = binary.BigEndian.AppendUint64(v2, nextID)
	v2 = binary.BigEndian.AppendUint32(v2, uint32(len(enc)))
	return append(append(v2, enc...), blob...)
}
