package member

import (
	"errors"
	"sort"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/snapcodec"
)

// ErrBadSnapshot reports a malformed member snapshot.
var ErrBadSnapshot = errors.New("member: malformed snapshot")

// Layout (snapcodec): "GKMB" | version(4) | id(8) | expected(8)
// | received(8) | count(4) | count key records in ascending ID order.
const (
	memberSnapMagic   = "GKMB"
	memberSnapVersion = 1
)

// Snapshot serializes the member's key store and loss counters so a client
// can survive a restart without re-registering — it resumes by applying
// the rekey payloads it missed. The blob contains the member's secrets;
// callers own encryption-at-rest.
func (m *Member) Snapshot() []byte {
	w := snapcodec.NewWriter(memberSnapMagic)
	w.U32(memberSnapVersion)
	w.U64(uint64(m.id))
	w.U64(uint64(m.expected))
	w.U64(uint64(m.received))
	w.U32(uint32(len(m.keys)))
	ids := make([]keycrypt.KeyID, 0, len(m.keys))
	for id := range m.keys {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		w.Key(m.keys[id])
	}
	return w.Bytes()
}

// Restore rebuilds a member from a snapshot.
func Restore(snapshot []byte) (*Member, error) {
	r := snapcodec.NewReader(snapshot, memberSnapMagic, ErrBadSnapshot)
	r.Version(memberSnapVersion)
	m := &Member{
		id:       keytree.MemberID(r.U64()),
		expected: int(r.U64()),
		received: int(r.U64()),
		keys:     make(map[keycrypt.KeyID]keycrypt.Key),
	}
	count := int(r.U32())
	for i := 0; i < count && r.Err() == nil; i++ {
		k := r.Key()
		if _, dup := m.keys[k.ID]; dup && r.Err() == nil {
			r.Fail("duplicate key slot %v", k.ID)
		}
		m.keys[k.ID] = k
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}
