package store

import (
	"bytes"
	"encoding/binary"
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
// is a padded one.
func TestSchemeConfigRejectsPrePlannerRecord(t *testing.T) {
	for _, c := range []SchemeConfig{
		{Kind: SchemeTT, SPeriodK: 4},
		{Kind: SchemeLossHomog, LossBounds: []float64{0.05}},
	} {
		enc := c.encode()
		if _, err := decodeSchemeConfig(enc[:len(enc)-1]); err == nil {
			t.Fatalf("pre-planner record for %+v decoded", c)
		}
		if _, err := decodeSchemeConfig(append(enc, 0)); err == nil {
			t.Fatalf("over-long record for %+v decoded", c)
		}
	}
}

// TestSnapshotPlainConfigRoundTrip covers the snapshot container: a
// version-2 snapshot carries the scheme config (or records its absence),
// and a version-1 file is rejected.
func TestSnapshotPlainConfigRoundTrip(t *testing.T) {
	blob := []byte("scheme-state")
	cfg := &SchemeConfig{Kind: SchemeTT, SPeriodK: 3, Planner: true}

	seq, nextID, gotCfg, gotBlob, err := decodeSnapshotPlain(encodeSnapshotPlain(42, 99, cfg, blob))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || nextID != 99 || !bytes.Equal(gotBlob, blob) {
		t.Fatalf("header or blob mangled: seq=%d nextID=%d blob=%q", seq, nextID, gotBlob)
	}
	if gotCfg == nil || !reflect.DeepEqual(*gotCfg, *cfg) {
		t.Fatalf("config mangled: %+v", gotCfg)
	}

	// Unknown config encodes as an empty section and decodes as nil.
	_, _, gotCfg, gotBlob, err = decodeSnapshotPlain(encodeSnapshotPlain(1, 2, nil, blob))
	if err != nil {
		t.Fatal(err)
	}
	if gotCfg != nil || !bytes.Equal(gotBlob, blob) {
		t.Fatalf("nil-config round trip: cfg=%+v blob=%q", gotCfg, gotBlob)
	}

	// Version-1 layout: no config section at all.
	v1 := []byte(snapMagic)
	v1 = binary.BigEndian.AppendUint32(v1, 1)
	v1 = binary.BigEndian.AppendUint64(v1, 7)
	v1 = binary.BigEndian.AppendUint64(v1, 8)
	v1 = append(v1, blob...)
	if _, _, _, _, err := decodeSnapshotPlain(v1); err == nil || !strings.Contains(err.Error(), "version 1 not supported") {
		t.Fatalf("version-1 snapshot: err=%v, want version 1 not supported", err)
	}
}
