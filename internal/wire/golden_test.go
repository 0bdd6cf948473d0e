package wire

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden frame fixtures")

// goldenFrames builds one deterministic frame payload per message type.
// Every input is pinned — keys from fixed material, nonces from the
// deterministic reader — so the encodings are stable across runs and any
// wire-format change shows up as a fixture diff, not a silent drift.
func goldenFrames(t *testing.T) map[MsgType][]byte {
	t.Helper()
	material := make([]byte, keycrypt.KeySize)
	for i := range material {
		material[i] = byte(i)
	}
	indiv, err := keycrypt.NewKey(101, 2, material)
	if err != nil {
		t.Fatal(err)
	}
	rng := keycrypt.NewDeterministicReader(42)
	wrapper, err := keycrypt.NewKey(202, 5, reverse(material))
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := keycrypt.Wrap(indiv, wrapper, rng)
	if err != nil {
		t.Fatal(err)
	}
	rekey, err := EncodeRekey(7, []keytree.Item{{Kind: keytree.ChildWrap, Level: 3, Wrapped: wrapped}})
	if err != nil {
		t.Fatal(err)
	}
	signingSeed := make([]byte, SigningSeedSize)
	for i := range signingSeed {
		signingSeed[i] = byte(0xa0 + i)
	}
	welcome, err := ReplWelcome{Epoch: 3, LastSeq: 44, SigningSeed: signingSeed}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var seed [ReplSeedSize]byte
	for i := range seed {
		seed[i] = byte(i * 3)
	}
	srvSeed := make([]byte, ed25519.SeedSize)
	for i := range srvSeed {
		srvSeed[i] = byte(0x51 + i)
	}
	srvKey := ed25519.NewKeyFromSeed(srvSeed)
	var itemBuf []byte
	for lvl := 0; lvl < 3; lvl++ {
		w, err := keycrypt.Wrap(indiv, wrapper, rng)
		if err != nil {
			t.Fatal(err)
		}
		itemBuf, err = AppendRekeyItem(itemBuf, keytree.Item{Kind: keytree.ChildWrap, Level: lvl, Wrapped: w})
		if err != nil {
			t.Fatal(err)
		}
	}
	tree := NewItemTree(3, func(i int) []byte { return itemBuf[i*RekeyItemSize : (i+1)*RekeyItemSize] })
	root := tree.Root()
	rootSig := SignSparse(srvKey, 9, 3, root)
	digest := RekeyDigest{
		Epoch: 9, NLeaves: 3, Root: root, Sig: rootSig, ShardSize: 512,
		Indexes: []uint32{0, 2},
		Blocks:  []DigestBlock{{Block: 0, K: 3, Shards: 5}},
	}
	return map[MsgType][]byte{
		MsgJoin:         JoinRequest{LossRate: 0.25, LongLived: true}.Encode(),
		MsgLeave:        nil,
		MsgWelcome:      Welcome{Member: 7, Key: indiv}.Encode(),
		MsgRekey:        rekey,
		MsgData:         []byte("sealed application frame"),
		MsgError:        []byte("join rejected"),
		MsgResume:       ResumeRequest{Member: 9, Proof: []byte{0xde, 0xad, 0xbe, 0xef}}.Encode(),
		MsgRetry:        EncodeRetryAfter(1500 * time.Millisecond),
		MsgRedirect:     EncodeRedirect("10.0.0.2:7600", 5),
		MsgWhereIs:      EncodeWhereIs(0x01020304),
		MsgReplHello:    ReplHello{Group: 6, Epoch: 2, HaveSeq: 17, Node: "node-b"}.Encode(),
		MsgReplWelcome:  welcome,
		MsgReplSnapshot: ReplSnapshot{Epoch: 3, Seq: 44, NextID: 12, Scheme: []byte("scheme blob")}.Encode(),
		MsgReplRecord:   ReplRecord{Epoch: 3, Kind: 2, Seq: 45, Seed: seed, Payload: []byte("batch payload")}.Encode(),
		MsgReplAck:      EncodeReplAck(45),
		MsgRekeySparse:  EncodeSparseRekey(9, tree, root, rootSig, []uint32{0, 2}, itemBuf),
		MsgRekeyDigest:  digest.Encode(),
		MsgRekeyPull:    EncodeRekeyPull(9),
	}
}

func reverse(b []byte) []byte {
	out := make([]byte, len(b))
	for i, v := range b {
		out[len(b)-1-i] = v
	}
	return out
}

const goldenPath = "testdata/golden_frames.txt"

// TestGoldenFrameVectors locks the byte-level frame encoding of every
// message type to committed hex fixtures. An intentional format change
// regenerates them with `go test -run Golden -update ./internal/wire`; an
// accidental one fails here first.
func TestGoldenFrameVectors(t *testing.T) {
	frames := goldenFrames(t)
	if len(frames) != NumMsgTypes {
		t.Fatalf("golden inputs cover %d message types, protocol defines %d", len(frames), NumMsgTypes)
	}

	var lines []string
	for i := 1; i <= NumMsgTypes; i++ {
		mt := MsgType(i)
		var buf bytes.Buffer
		if err := WriteFrameGroup(&buf, 0x01020304, mt, frames[mt]); err != nil {
			t.Fatalf("%v: %v", mt, err)
		}
		// "v2" names the header in the committed fixtures, kept byte-identical.
		lines = append(lines, fmt.Sprintf("%s v2 %s", mt, hex.EncodeToString(buf.Bytes())))
	}
	got := strings.Join(lines, "\n") + "\n"

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading fixtures (regenerate with -update): %v", err)
	}
	if got != string(want) {
		gotLines := strings.Split(got, "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Errorf("frame encoding changed at fixture line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
			}
		}
		if len(gotLines) != len(wantLines) {
			t.Errorf("fixture line count changed: got %d, want %d", len(gotLines), len(wantLines))
		}
		t.Fatal("wire encoding diverged from committed golden vectors; if intentional, rerun with -update and review the diff")
	}

	// Decode direction: every committed fixture must read back to the same
	// (group, type, payload) under both readers.
	for _, line := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		parts := strings.Fields(line)
		if len(parts) != 3 {
			t.Fatalf("malformed fixture line %q", line)
		}
		raw, err := hex.DecodeString(parts[2])
		if err != nil {
			t.Fatalf("fixture %q: %v", line, err)
		}
		g, mt, payload, err := ReadFrameGroup(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("fixture %q failed to decode: %v", line, err)
		}
		if mt.String() != parts[0] {
			t.Errorf("fixture %q decoded as type %v", line, mt)
		}
		if g != 0x01020304 {
			t.Errorf("fixture %q decoded group %d", line, g)
		}
		mt2, payload2, err := ReadFrame(bytes.NewReader(raw))
		if err != nil || mt2 != mt || !bytes.Equal(payload2, payload) {
			t.Errorf("ReadFrame diverged on fixture %q: %v", line, err)
		}
	}
}

// TestMsgTypeNamesExhaustive keeps MsgType.String — the vocabulary every
// per-type metrics label is derived from — in lockstep with the defined
// type list. Adding a MsgType without naming it (or renaming one into a
// collision) fails here instead of silently exporting MsgType(9) labels.
func TestMsgTypeNamesExhaustive(t *testing.T) {
	seen := make(map[string]MsgType)
	for i := 1; i <= NumMsgTypes; i++ {
		mt := MsgType(i)
		name := mt.String()
		if strings.HasPrefix(name, "MsgType(") {
			t.Errorf("defined type %d has no String() name", i)
		}
		for _, r := range name {
			if r < 'a' || r > 'z' {
				t.Errorf("type %d name %q is not a clean metrics label value", i, name)
			}
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("types %d and %d share the name %q", prev, mt, name)
		}
		seen[name] = mt
		if byte(mt)&groupFlag != 0 {
			t.Errorf("type %d collides with the group-addressing flag", i)
		}
	}
	// One past the end must hit the fallback — proving NumMsgTypes is not
	// lagging behind a type someone added and named.
	if name := MsgType(NumMsgTypes + 1).String(); !strings.HasPrefix(name, "MsgType(") {
		t.Errorf("type %d is named %q but lies beyond NumMsgTypes; bump the sentinel", NumMsgTypes+1, name)
	}
}
