// Package wire defines the framed binary protocol spoken between the group
// key server daemon and its members: length-prefixed frames carrying join
// and leave requests, registration welcomes, rekey payloads and sealed
// application data.
//
// The protocol assumes the underlying transport provides confidentiality
// for the registration exchange (in production the join handshake runs over
// TLS or IPsec; rekey payloads themselves are self-protecting — every key
// travels wrapped under another key).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// Protocol errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrMalformed     = errors.New("wire: malformed message")
)

// MaxFrameSize bounds a frame's payload (rekey payloads for very large
// groups dominate; 16 MiB is ample).
const MaxFrameSize = 16 << 20

// GroupID addresses one hosted group on a multi-group key server. Group 0
// is the default group — the one every legacy (v1-header) frame implicitly
// addresses, so single-group deployments upgrade without a flag day.
type GroupID uint32

// groupFlag marks a group-addressed (v2) frame: the high bit of the type
// byte is set and a big-endian uint32 group ID follows it. MsgType values
// must stay below the flag, which the exhaustiveness test enforces.
const groupFlag = 0x80

// MsgType identifies a frame's payload encoding.
type MsgType uint8

const (
	// MsgJoin is a client's join request (payload: member metadata).
	MsgJoin MsgType = iota + 1
	// MsgLeave is a client's leave request (no payload).
	MsgLeave
	// MsgWelcome is the server's registration package: the assigned member
	// ID and individual key (payload confidential by transport assumption).
	MsgWelcome
	// MsgRekey is reserved and never sent: it numbered the retired signed
	// full-payload rekey frame. Members receive rekeys as MsgRekeySparse.
	// The slot stays so later type numbers (and their golden vectors) keep
	// their values.
	MsgRekey
	// MsgData carries application data sealed under the group key.
	MsgData
	// MsgError carries a human-readable rejection.
	MsgError
	// MsgResume is a restarting client's re-attachment request: the member
	// ID plus a proof of possession of the member's current individual key
	// (payload confidential by the same transport assumption as MsgWelcome).
	// A successfully resumed member keeps its keys and its place in the key
	// tree — no re-join, no rekey.
	MsgResume
	// MsgRetry defers a join without dropping the connection: the server is
	// shedding admission load and the client should retry after the carried
	// duration. Unlike MsgError this is not terminal — committed members
	// keep rekeying while joins wait their turn.
	MsgRetry
	// MsgRedirect answers a join, resume or MsgWhereIs addressed to a group
	// this node does not own: the payload carries the owning node's client
	// address and its lease epoch. The client re-dials the carried address.
	MsgRedirect
	// MsgWhereIs asks any cluster node which node owns a group (payload:
	// group ID). The answer is a MsgRedirect — the cluster map service.
	MsgWhereIs
	// MsgReplHello opens a node-to-node WAL replication stream: a follower
	// announces the group it wants, the fence epoch it has durably seen and
	// the newest WAL sequence it already holds.
	MsgReplHello
	// MsgReplWelcome is the primary's stream acceptance: its current lease
	// epoch, its newest WAL sequence and the group's signing-key seed (the
	// inter-node channel carries key material and rides the same
	// confidential-transport assumption as member registration).
	MsgReplWelcome
	// MsgReplSnapshot ships a full scheme state to a follower that is too
	// far behind (or fenced into a new epoch) to catch up record by record.
	MsgReplSnapshot
	// MsgReplRecord streams one journaled WAL record — kind, sequence,
	// replay seed and payload — under the primary's fence epoch. Replaying
	// the record under its seed reproduces the primary's key material
	// byte-identically.
	MsgReplRecord
	// MsgReplAck is the follower's cumulative acknowledgement of applied
	// records, driving the primary's replication-lag gauge.
	MsgReplAck
	// MsgRekeySparse carries one member's slice of a rekey: only the items
	// on that member's key-tree path, authenticated against the epoch's
	// signed item-tree root by a Merkle multiproof (see sparse.go). It is
	// the only rekey frame a member receives; a member the epoch's seal did
	// not index (a resumer) gets one carrying every item.
	MsgRekeySparse
	// MsgRekeyDigest announces an epoch whose keys travel on the datagram
	// plane: the signed item-tree root plus the member's leaf indexes and
	// the FEC block geometry it must collect over UDP (see sparse.go).
	MsgRekeyDigest
	// MsgRekeyPull is a client's repair request for an epoch it could not
	// assemble from datagrams (payload: epoch). The server answers with the
	// authoritative MsgRekeySparse frame — TCP as the repair channel.
	MsgRekeyPull

	// msgTypeSentinel marks the end of the defined range. Adding a type
	// above without extending MsgType.String (and therefore the metrics
	// label vocabulary) fails TestMsgTypeNamesExhaustive.
	msgTypeSentinel
)

// NumMsgTypes is how many message types the protocol defines; valid types
// are 1..NumMsgTypes. The exhaustiveness test iterates this range to keep
// String() — and every metrics label derived from it — in lockstep with
// the type list.
const NumMsgTypes = int(msgTypeSentinel) - 1

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgJoin:
		return "join"
	case MsgLeave:
		return "leave"
	case MsgWelcome:
		return "welcome"
	case MsgRekey:
		return "rekey"
	case MsgData:
		return "data"
	case MsgError:
		return "error"
	case MsgResume:
		return "resume"
	case MsgRetry:
		return "retry"
	case MsgRedirect:
		return "redirect"
	case MsgWhereIs:
		return "whereis"
	case MsgReplHello:
		return "replhello"
	case MsgReplWelcome:
		return "replwelcome"
	case MsgReplSnapshot:
		return "replsnapshot"
	case MsgReplRecord:
		return "replrecord"
	case MsgReplAck:
		return "replack"
	case MsgRekeySparse:
		return "rekeysparse"
	case MsgRekeyDigest:
		return "rekeydigest"
	case MsgRekeyPull:
		return "rekeypull"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// WriteFrame writes one legacy (v1) frame: uint32 length, uint8 type,
// payload. A v1 frame implicitly addresses group 0.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if byte(t)&groupFlag != 0 {
		return fmt.Errorf("%w: type %d collides with the group flag", ErrMalformed, t)
	}
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	hdr := make([]byte, 5)
	binary.BigEndian.PutUint32(hdr, uint32(len(payload)+1))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("wire: writing frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wire: writing frame payload: %w", err)
	}
	return nil
}

// WriteFrameGroup writes one group-addressed (v2) frame: uint32 length,
// uint8 type with the high bit set, uint32 group ID, payload. Group 0 is
// written explicitly — the v2 header states the address, it never implies
// one.
func WriteFrameGroup(w io.Writer, g GroupID, t MsgType, payload []byte) error {
	if byte(t)&groupFlag != 0 {
		return fmt.Errorf("%w: type %d collides with the group flag", ErrMalformed, t)
	}
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	hdr := make([]byte, 9)
	binary.BigEndian.PutUint32(hdr, uint32(len(payload)+5))
	hdr[4] = byte(t) | groupFlag
	binary.BigEndian.PutUint32(hdr[5:], uint32(g))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("wire: writing frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wire: writing frame payload: %w", err)
	}
	return nil
}

// ReadFrame reads one frame of either header version, discarding the group
// address. Single-group endpoints (members bound to one group per
// connection) use this; the multi-group server routes with ReadFrameGroup.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	_, t, payload, _, err := readFrame(r)
	return t, payload, err
}

// ReadFrameGroup reads one frame of either header version and returns the
// group it addresses; legacy v1 frames map to group 0.
func ReadFrameGroup(r io.Reader) (GroupID, MsgType, []byte, error) {
	g, t, payload, _, err := readFrame(r)
	return g, t, payload, err
}

// readFrame decodes one frame, reporting which header version carried it.
func readFrame(r io.Reader) (GroupID, MsgType, []byte, bool, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, 0, nil, false, err // io.EOF propagates untouched for clean shutdown
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n < 1 {
		return 0, 0, nil, false, fmt.Errorf("%w: zero-length frame", ErrMalformed)
	}
	if n > MaxFrameSize+5 {
		return 0, 0, nil, false, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, 0, nil, false, fmt.Errorf("wire: reading frame body: %w", err)
	}
	if body[0]&groupFlag == 0 {
		return 0, MsgType(body[0]), body[1:], false, nil
	}
	if n < 5 {
		return 0, 0, nil, false, fmt.Errorf("%w: group-addressed frame %d bytes", ErrMalformed, n)
	}
	g := GroupID(binary.BigEndian.Uint32(body[1:5]))
	return g, MsgType(body[0] &^ groupFlag), body[5:], true, nil
}

// Client capability flags a join may carry. They are accepted, not read:
// every member is sent sparse frames, and the datagram plane registers a
// member by its sealed UDP hello, not by a join flag.
const (
	// CapSparse announced a client that decodes MsgRekeySparse frames.
	CapSparse uint8 = 1 << 0
	// CapDatagram announced a client that may subscribe to the UDP plane.
	CapDatagram uint8 = 1 << 1
)

// JoinRequest is the metadata a joining member reports (Section 4.2: loss
// rate for tree placement; class hint for the PT oracle).
type JoinRequest struct {
	LossRate  float64 // negative means unknown
	LongLived bool
	// Caps is the client's capability bitmap: accepted, not read. Nonzero
	// caps add a tenth byte to the encoding.
	Caps uint8
}

// Encode serializes the request: 9 bytes, plus a trailing caps byte when
// any capability is requested.
func (j JoinRequest) Encode() []byte {
	n := 9
	if j.Caps != 0 {
		n = 10
	}
	out := make([]byte, n)
	binary.BigEndian.PutUint64(out, math.Float64bits(j.LossRate))
	if j.LongLived {
		out[8] = 1
	}
	if j.Caps != 0 {
		out[9] = j.Caps
	}
	return out
}

// DecodeJoinRequest parses a MsgJoin payload (9 bytes legacy, 10 with the
// capability byte).
func DecodeJoinRequest(b []byte) (JoinRequest, error) {
	if len(b) != 9 && len(b) != 10 {
		return JoinRequest{}, fmt.Errorf("%w: join payload %d bytes", ErrMalformed, len(b))
	}
	req := JoinRequest{
		LossRate:  math.Float64frombits(binary.BigEndian.Uint64(b)),
		LongLived: b[8] == 1,
	}
	if len(b) == 10 {
		req.Caps = b[9]
	}
	return req, nil
}

// Welcome is the registration package.
type Welcome struct {
	Member keytree.MemberID
	Key    keycrypt.Key
}

// Encode serializes the welcome: member(8) + keyID(8) + version(4) +
// material(32).
func (w Welcome) Encode() []byte {
	out := make([]byte, 0, 20+keycrypt.KeySize)
	out = binary.BigEndian.AppendUint64(out, uint64(w.Member))
	out = binary.BigEndian.AppendUint64(out, uint64(w.Key.ID))
	out = binary.BigEndian.AppendUint32(out, uint32(w.Key.Version))
	out = append(out, w.Key.Bytes()...)
	return out
}

// DecodeWelcome parses a MsgWelcome payload.
func DecodeWelcome(b []byte) (Welcome, error) {
	if len(b) != 20+keycrypt.KeySize {
		return Welcome{}, fmt.Errorf("%w: welcome payload %d bytes", ErrMalformed, len(b))
	}
	key, err := keycrypt.NewKey(
		keycrypt.KeyID(binary.BigEndian.Uint64(b[8:16])),
		keycrypt.Version(binary.BigEndian.Uint32(b[16:20])),
		b[20:],
	)
	if err != nil {
		return Welcome{}, err
	}
	return Welcome{Member: keytree.MemberID(binary.BigEndian.Uint64(b[0:8])), Key: key}, nil
}

// MemberJoin pairs an assigned member ID with the join metadata it
// reported — one joiner of a journaled membership batch.
type MemberJoin struct {
	Member keytree.MemberID
	Req    JoinRequest
}

// memberJoinSize is member(8) + LossRate(8) + LongLived(1). The log never
// carries JoinRequest.Caps, so its entries do not follow the join layout.
const memberJoinSize = 8 + 9

// EncodeMembershipBatch serializes one applied membership batch for the
// durable write-ahead log: joins count(4) + entries, then leaves count(4) +
// member IDs. The entry order is preserved — recovery replays batches in
// exactly the order the live server applied them.
func EncodeMembershipBatch(joins []MemberJoin, leaves []keytree.MemberID) []byte {
	out := make([]byte, 0, 8+len(joins)*memberJoinSize+len(leaves)*8)
	out = binary.BigEndian.AppendUint32(out, uint32(len(joins)))
	for _, j := range joins {
		out = binary.BigEndian.AppendUint64(out, uint64(j.Member))
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(j.Req.LossRate))
		out = append(out, 0)
		if j.Req.LongLived {
			out[len(out)-1] = 1
		}
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(leaves)))
	for _, m := range leaves {
		out = binary.BigEndian.AppendUint64(out, uint64(m))
	}
	return out
}

// DecodeMembershipBatch parses a blob produced by EncodeMembershipBatch.
func DecodeMembershipBatch(b []byte) (joins []MemberJoin, leaves []keytree.MemberID, err error) {
	if len(b) < 8 {
		return nil, nil, fmt.Errorf("%w: batch record %d bytes", ErrMalformed, len(b))
	}
	nj := int(binary.BigEndian.Uint32(b[0:4]))
	rest := b[4:]
	if nj < 0 || len(rest) < nj*memberJoinSize+4 {
		return nil, nil, fmt.Errorf("%w: %d joins but %d payload bytes", ErrMalformed, nj, len(rest))
	}
	for i := 0; i < nj; i++ {
		chunk := rest[i*memberJoinSize : (i+1)*memberJoinSize]
		m := keytree.MemberID(binary.BigEndian.Uint64(chunk[0:8]))
		if m == 0 {
			return nil, nil, fmt.Errorf("%w: zero joiner ID", ErrMalformed)
		}
		joins = append(joins, MemberJoin{Member: m, Req: JoinRequest{
			LossRate:  math.Float64frombits(binary.BigEndian.Uint64(chunk[8:16])),
			LongLived: chunk[16] == 1,
		}})
	}
	rest = rest[nj*memberJoinSize:]
	nl := int(binary.BigEndian.Uint32(rest[0:4]))
	rest = rest[4:]
	if nl < 0 || len(rest) != nl*8 {
		return nil, nil, fmt.Errorf("%w: %d leaves but %d payload bytes", ErrMalformed, nl, len(rest))
	}
	for i := 0; i < nl; i++ {
		m := keytree.MemberID(binary.BigEndian.Uint64(rest[i*8 : (i+1)*8]))
		if m == 0 {
			return nil, nil, fmt.Errorf("%w: zero leaver ID", ErrMalformed)
		}
		leaves = append(leaves, m)
	}
	return joins, leaves, nil
}

// ResumeRequest is a MsgResume payload: the member ID plus an opaque proof
// blob (the member's resume challenge sealed under its current individual
// key — see internal/server).
type ResumeRequest struct {
	Member keytree.MemberID
	Proof  []byte
}

// resumeProofSize is the fixed size of a resume proof: the 8-byte member
// ID sealed under the member's individual key.
var resumeProofSize = keycrypt.SealedSize(8)

// Encode serializes the resume request: member(8) ‖ proof.
func (r ResumeRequest) Encode() []byte {
	out := make([]byte, 0, 8+len(r.Proof))
	out = binary.BigEndian.AppendUint64(out, uint64(r.Member))
	return append(out, r.Proof...)
}

// DecodeResumeRequest parses a MsgResume payload, which must carry a
// proof of exactly the sealed size.
func DecodeResumeRequest(b []byte) (ResumeRequest, error) {
	if len(b) != 8+resumeProofSize {
		return ResumeRequest{}, fmt.Errorf("%w: resume payload %d bytes", ErrMalformed, len(b))
	}
	m := keytree.MemberID(binary.BigEndian.Uint64(b[0:8]))
	if m == 0 {
		return ResumeRequest{}, fmt.Errorf("%w: zero member ID", ErrMalformed)
	}
	return ResumeRequest{Member: m, Proof: b[8:]}, nil
}

// EncodeRetryAfter serializes a MsgRetry payload: the suggested backoff in
// milliseconds (4 bytes; sub-millisecond waits round up to 1 ms so a retry
// hint is never zero).
func EncodeRetryAfter(d time.Duration) []byte {
	ms := d.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	if ms > math.MaxUint32 {
		ms = math.MaxUint32
	}
	out := make([]byte, 4)
	binary.BigEndian.PutUint32(out, uint32(ms))
	return out
}

// DecodeRetryAfter parses a MsgRetry payload.
func DecodeRetryAfter(b []byte) (time.Duration, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("%w: retry payload %d bytes", ErrMalformed, len(b))
	}
	ms := binary.BigEndian.Uint32(b)
	if ms == 0 {
		return 0, fmt.Errorf("%w: zero retry-after", ErrMalformed)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// RekeyItemSize is the wire size of one rekey item: kind(1) + level(2) +
// wrapped key blob. Sparse frames and datagram shards carry items in this
// same encoding, so range arithmetic over an epoch's item buffer is exact.
const RekeyItemSize = 3 + keycrypt.WrappedSize

// AppendRekeyItem appends one item's RekeyItemSize-byte encoding to buf.
func AppendRekeyItem(buf []byte, it keytree.Item) ([]byte, error) {
	if it.Level < 0 || it.Level > math.MaxUint16 {
		return nil, fmt.Errorf("%w: level %d", ErrMalformed, it.Level)
	}
	buf = append(buf, byte(it.Kind))
	buf = binary.BigEndian.AppendUint16(buf, uint16(it.Level))
	return it.Wrapped.AppendTo(buf), nil
}

// DecodeRekeyItem parses one RekeyItemSize-byte item encoding.
func DecodeRekeyItem(b []byte) (keytree.Item, error) {
	if len(b) != RekeyItemSize {
		return keytree.Item{}, fmt.Errorf("%w: item %d bytes", ErrMalformed, len(b))
	}
	w, err := keycrypt.UnmarshalWrapped(b[3:])
	if err != nil {
		return keytree.Item{}, err
	}
	return keytree.Item{
		Kind:    keytree.ItemKind(b[0]),
		Level:   int(binary.BigEndian.Uint16(b[1:3])),
		Wrapped: w,
	}, nil
}

// MaxRekeyItems is the most items one EncodeRekey payload can carry.
const MaxRekeyItems = (MaxFrameSize - 12) / RekeyItemSize

// EncodeRekey serializes a whole rekey payload: epoch(8) + count(4) +
// items. No member is sent it; it stays as the "full payload" byte
// reference the fan-out experiment and the epoch benchmark compare sparse
// frames against. Receiver lists are not transmitted.
func EncodeRekey(epoch uint64, items []keytree.Item) ([]byte, error) {
	if len(items) > MaxRekeyItems {
		return nil, fmt.Errorf("%w: %d items", ErrFrameTooLarge, len(items))
	}
	out := make([]byte, 0, 12+len(items)*RekeyItemSize)
	out = binary.BigEndian.AppendUint64(out, epoch)
	out = binary.BigEndian.AppendUint32(out, uint32(len(items)))
	var err error
	for _, it := range items {
		if out, err = AppendRekeyItem(out, it); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// EncodeRekeyPull serializes a MsgRekeyPull payload: the epoch the client
// wants the authoritative sparse frame for.
func EncodeRekeyPull(epoch uint64) []byte {
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, epoch)
	return out
}

// DecodeRekeyPull parses a MsgRekeyPull payload.
func DecodeRekeyPull(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("%w: rekey pull payload %d bytes", ErrMalformed, len(b))
	}
	return binary.BigEndian.Uint64(b), nil
}
