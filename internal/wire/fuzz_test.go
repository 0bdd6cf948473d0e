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

// FuzzDecodeResumeRequest throws arbitrary bytes at the resume decoder,
// which parses unauthenticated network input: no panics, and accepted
// payloads re-encode to the same bytes.
func FuzzDecodeResumeRequest(f *testing.F) {
	f.Add(ResumeRequest{Member: 3, Proof: make([]byte, resumeProofSize)}.Encode())
	f.Add(ResumeRequest{Member: 3, Proof: make([]byte, resumeProofSize+1)}.Encode())
	f.Add(make([]byte, 8+resumeProofSize)) // zero member
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResumeRequest(data)
		if err != nil {
			return
		}
		if !bytes.Equal(r.Encode(), data) {
			t.Fatal("resume request round trip diverged")
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

// FuzzScopedIndex fuzzes the addressing rule on small key trees. The input
// picks a degree, a population and the planner setting, one churn batch
// (which members depart, how many join) and an audience that mixes
// members, this batch's leavers and IDs the tree never held; Build must
// match the brute-force oracle for every audience member.
func FuzzScopedIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 1, 0, 2, 1, 2, 0, 1, 5})
	f.Add(bytes.Repeat([]byte{1, 2, 0}, 40))
	f.Add([]byte{255, 1, 255, 1, 0, 255, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		degree, n := 2+next()%3, 1+next()%40
		opts := []keytree.Option{keytree.WithRand(keycrypt.NewDeterministicReader(uint64(n)))}
		if next()%2 == 1 {
			opts = append(opts, keytree.WithPlanner(keytree.PlannerConfig{}))
		}
		tr, err := keytree.New(degree, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var prime, b keytree.Batch
		for m := 1; m <= n; m++ {
			prime.Joins = append(prime.Joins, keytree.MemberID(m))
			if next()%3 == 1 {
				b.Leaves = append(b.Leaves, keytree.MemberID(m))
			}
		}
		for j := next() % 9; j > 0; j-- {
			b.Joins = append(b.Joins, keytree.MemberID(n+j))
		}
		if _, err := tr.Rekey(prime); err != nil {
			t.Fatal(err)
		}
		p, err := tr.Rekey(b)
		if err != nil {
			t.Fatal(err)
		}
		items := p.AllItems()
		var audience, everyone []keytree.MemberID
		for m := keytree.MemberID(0); m <= keytree.MemberID(n+12); m++ {
			everyone = append(everyone, m)
			if next()%2 == 0 {
				audience = append(audience, m)
			}
		}
		keys := func(m keytree.MemberID) []keycrypt.KeyID {
			held, err := tr.Path(m)
			if err != nil {
				return nil
			}
			ids := make([]keycrypt.KeyID, len(held))
			for i, k := range held {
				ids[i] = k.ID
			}
			return ids
		}
		var x ScopedIndex
		x.Build(items, audience, tr.PathIDs)
		checkScoped(t, &x, items, audience, everyone, keys)
	})
}
