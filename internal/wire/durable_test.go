package wire

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"groupkey/internal/keytree"
)

func TestMembershipBatchRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		joins  []MemberJoin
		leaves []keytree.MemberID
		want   []MemberJoin // decoded joins when they differ from joins
	}{
		{"empty", nil, nil, nil},
		{"joins-only", []MemberJoin{
			{Member: 1, Req: JoinRequest{LossRate: 0.25}},
			{Member: 7, Req: JoinRequest{LossRate: -1, LongLived: true}},
		}, nil, nil},
		{"leaves-only", nil, []keytree.MemberID{3, 9, 4}, nil},
		{"mixed", []MemberJoin{{Member: 42, Req: JoinRequest{}}}, []keytree.MemberID{1}, nil},
		// Caps is never encoded: log entries stay 17 bytes.
		{"caps-not-logged", []MemberJoin{
			{Member: 5, Req: JoinRequest{LossRate: 0.5, LongLived: true, Caps: CapSparse}},
			{Member: 6, Req: JoinRequest{LossRate: 0.1, Caps: CapSparse | CapDatagram}},
		}, []keytree.MemberID{2}, []MemberJoin{
			{Member: 5, Req: JoinRequest{LossRate: 0.5, LongLived: true}},
			{Member: 6, Req: JoinRequest{LossRate: 0.1}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blob := EncodeMembershipBatch(tc.joins, tc.leaves)
			joins, leaves, err := DecodeMembershipBatch(blob)
			if err != nil {
				t.Fatalf("DecodeMembershipBatch: %v", err)
			}
			want := tc.joins
			if tc.want != nil {
				want = tc.want
			}
			if !reflect.DeepEqual(joins, want) {
				t.Fatalf("joins %+v, want %+v", joins, want)
			}
			if !reflect.DeepEqual(leaves, tc.leaves) {
				t.Fatalf("leaves %+v, want %+v", leaves, tc.leaves)
			}
			// Order is the replay order: encoding is canonical.
			if !bytes.Equal(blob, EncodeMembershipBatch(joins, leaves)) {
				t.Fatal("re-encode differs")
			}
		})
	}
}

func TestMembershipBatchMalformed(t *testing.T) {
	good := EncodeMembershipBatch(
		[]MemberJoin{{Member: 5, Req: JoinRequest{LossRate: 0.1}}},
		[]keytree.MemberID{2},
	)
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"nil", nil},
		{"short", good[:6]},
		{"truncated-join", good[:12]},
		{"truncated-leaves", good[:len(good)-3]},
		{"trailing", append(append([]byte{}, good...), 0)},
		{"zero-joiner", EncodeMembershipBatch([]MemberJoin{{Member: 0}}, nil)},
		{"zero-leaver", EncodeMembershipBatch(nil, []keytree.MemberID{0})},
	} {
		if _, _, err := DecodeMembershipBatch(tc.blob); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestResumeRequestRoundTrip(t *testing.T) {
	proof := bytes.Repeat([]byte{0xa5}, resumeProofSize)
	want := ResumeRequest{Member: 12345, Proof: proof}
	enc := want.Encode()
	if len(enc) != 8+resumeProofSize {
		t.Fatalf("resume request is %d bytes, want member(8) + proof(%d)", len(enc), resumeProofSize)
	}
	got, err := DecodeResumeRequest(enc)
	if err != nil {
		t.Fatalf("DecodeResumeRequest: %v", err)
	}
	if got.Member != want.Member || !bytes.Equal(got.Proof, want.Proof) {
		t.Fatalf("got %+v, want %+v", got, want)
	}

	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"nil", nil},
		{"too-short", make([]byte, 8)}, // ID but no proof at all
		{"short-proof", enc[:len(enc)-1]},
		// The retired caps byte between member and proof is one too many.
		{"caps-layout", slices.Concat(enc[:8], []byte{CapSparse}, proof)},
		{"zero-member", append(make([]byte, 8), proof...)},
	} {
		if _, err := DecodeResumeRequest(tc.blob); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// FuzzDecodeMembershipBatch: the decoder sits on the crash-recovery path,
// reading WAL payloads that may be arbitrarily damaged — it must never
// panic, and anything it accepts must normalize in one re-encode step
// (exact bit-round-tripping is not required of hostile floats, only of
// blobs the encoder itself produced — which is all the WAL ever holds).
func FuzzDecodeMembershipBatch(f *testing.F) {
	f.Add(EncodeMembershipBatch(nil, nil))
	f.Add(EncodeMembershipBatch(
		[]MemberJoin{{Member: 1, Req: JoinRequest{LossRate: 0.5, LongLived: true}}},
		[]keytree.MemberID{2, 3},
	))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		joins, leaves, err := DecodeMembershipBatch(data)
		if err != nil {
			return
		}
		blob := EncodeMembershipBatch(joins, leaves)
		j2, l2, err := DecodeMembershipBatch(blob)
		if err != nil {
			t.Fatalf("re-encode of accepted input rejected: %v", err)
		}
		if !bytes.Equal(blob, EncodeMembershipBatch(j2, l2)) {
			t.Fatal("decoder/encoder pair does not normalize")
		}
	})
}
