package wire

import (
	"bytes"
	"testing"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it must never
// panic or over-allocate, and any frame it accepts must round-trip.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteFrame(&seed, MsgJoin, JoinRequest{LossRate: 0.1}.Encode())
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, byte(MsgLeave)})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, typ, payload); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		typ2, payload2, err := ReadFrame(&out)
		if err != nil || typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatalf("frame round trip diverged: %v", err)
		}
	})
}

// FuzzReadFrameGroup feeds arbitrary bytes to the group-aware frame
// reader: it must never panic, must map legacy frames to group 0, and any
// accepted frame must survive a group-addressed re-encode.
func FuzzReadFrameGroup(f *testing.F) {
	var v1, v2 bytes.Buffer
	_ = WriteFrame(&v1, MsgJoin, JoinRequest{LossRate: 0.1}.Encode())
	_ = WriteFrameGroup(&v2, 7, MsgResume, ResumeRequest{Member: 3, Proof: []byte{1}}.Encode())
	f.Add(v1.Bytes())
	f.Add(v2.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 5, byte(MsgLeave) | 0x80, 0, 0, 0, 9})
	f.Add([]byte{0, 0, 0, 2, 0x80, 1}) // flagged but too short for a group

	f.Fuzz(func(t *testing.T, data []byte) {
		g, typ, payload, err := ReadFrameGroup(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrameGroup(&out, g, typ, payload); err != nil {
			t.Fatalf("accepted frame failed to re-encode group-addressed: %v", err)
		}
		g2, typ2, payload2, err := ReadFrameGroup(&out)
		if err != nil || g2 != g || typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatalf("group frame round trip diverged: %v", err)
		}
		// The legacy reader must agree on type and payload regardless of
		// header version — it only discards the address.
		typ3, payload3, err := ReadFrame(bytes.NewReader(data))
		if err != nil || typ3 != typ || !bytes.Equal(payload3, payload) {
			t.Fatalf("legacy and group readers diverged: %v", err)
		}
	})
}

// FuzzDecodeRekey throws arbitrary bytes at the rekey decoder: no panics,
// and accepted payloads re-encode to the same bytes.
func FuzzDecodeRekey(f *testing.F) {
	g := keycrypt.Generator{Rand: keycrypt.NewDeterministicReader(1)}
	payload, _ := g.New(1, 0)
	wrapper, _ := g.New(2, 0)
	w, _ := keycrypt.Wrap(payload, wrapper, g.Rand)
	blob, _ := EncodeRekey(3, []keytree.Item{{Wrapped: w, Kind: keytree.ChildWrap, Level: 1}})
	f.Add(blob)
	f.Add([]byte{})
	f.Add(make([]byte, 12))

	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, items, err := DecodeRekey(data)
		if err != nil {
			return
		}
		re, err := EncodeRekey(epoch, items)
		if err != nil {
			t.Fatalf("accepted rekey failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("rekey round trip diverged")
		}
	})
}

// FuzzDecodeWelcome exercises the registration decoder.
func FuzzDecodeWelcome(f *testing.F) {
	f.Add(Welcome{Member: 1, Key: keycrypt.Random(2, 3)}.Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := DecodeWelcome(data)
		if err != nil {
			return
		}
		if !bytes.Equal(w.Encode(), data) {
			t.Fatal("welcome round trip diverged")
		}
	})
}

// FuzzScopedIndex derives arbitrary ascending receiver lists and an
// arbitrary ascending audience from the input and checks the scoped index
// against the whole-group map oracle. Bytes are consumed as deltas, so
// every list ascends strictly by construction; small deltas make overlap
// between the lists likely.
func FuzzScopedIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 1, 0, 2, 1, 2, 0, 1, 5})
	f.Add(bytes.Repeat([]byte{1, 2, 0}, 40))
	f.Add([]byte{255, 1, 255, 1, 0, 255, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The first zero-terminated run is the audience, each further one an
		// item's receiver list (a zero byte ends a list; delta bytes are ≥ 1).
		var lists [][]keytree.MemberID
		var cur []keytree.MemberID
		var last keytree.MemberID
		for _, b := range data {
			if b == 0 {
				lists = append(lists, cur)
				cur, last = nil, 0
				continue
			}
			last += keytree.MemberID(b)
			cur = append(cur, last)
		}
		lists = append(lists, cur)
		audience := lists[0]
		items := make([]keytree.Item, len(lists)-1)
		for i := range items {
			items[i].Receivers = lists[i+1]
		}
		var x ScopedIndex
		x.Build(items, audience)
		checkScoped(t, &x, items, audience)
	})
}
