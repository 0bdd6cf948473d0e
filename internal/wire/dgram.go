package wire

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"math/bits"

	"groupkey/internal/keytree"
)

// Datagram rekey plane: keys travel server→client as UDP packets — source
// shards carrying (position, item) entries and Reed-Solomon parity shards;
// a position is the item's place in the epoch's datagram packing, the
// items the plane's subscribers read, ascending.
// One Ed25519 signature covers a whole epoch of them (Wong and Lam's tree
// chaining): the server hashes every packet body of the epoch into an
// ItemTree, signs the root once, and each packet carries its
// authentication path, the root and the signature, so a member can still
// use a packet the moment it arrives, loss or reordering notwithstanding.
// A receiver verifies the signature of an epoch's root once and checks
// every other packet of that epoch by its path (DgramVerifier).
// Client→server packets (subscribe hello, NACK feedback) are authenticated
// by sealing their body under the member's individual leaf key, which only
// the member and the key server hold.
//
// Common header: magic "GK"(2) ‖ version(1) ‖ type(1) ‖ group(4) ‖
// epoch(8) = 16 bytes, then per-type fields:
//
//	DgramKeys:   block(2) shard(1) k(1) leaf(4) leaves(4) ‖ shardBytes
//	             ‖ path(depth×32) ‖ root(32) ‖ sig(64)
//	DgramParity: block(2) shard(1) k(1) leaf(4) leaves(4) ‖ parityBytes
//	             ‖ path(depth×32) ‖ root(32) ‖ sig(64)
//	DgramHello:  member(8) ‖ sealed(helloBody)
//	DgramNack:   member(8) ‖ sealed(NackBody)
//
// A shard packet's body — everything before its path — is leaf `leaf` of
// the epoch's tree of `leaves` packets; depth is that tree's height,
// bits.Len32(leaves-1), so the path is the leaf's sibling hashes from the
// leaf level up (the single-index multiproof). The signature covers
// dgramDomain ‖ group ‖ epoch ‖ leaves ‖ root, and every packet body names
// its group and epoch, so nothing can be spliced between epochs, blocks or
// groups. A source shard's canonical bytes are count(2) ‖ count×(position(4)
// ‖ item(RekeyItemSize)), zero-padded to the epoch's shard size for RS
// encoding; the wire packet carries them unpadded (the digest's ShardSize
// restores padding before reconstruction).

const (
	dgramMagic0 = 'G'
	dgramMagic1 = 'K'
	// DgramVersion is the datagram plane protocol version.
	DgramVersion = 2
	// dgramHdrSize is the common header length.
	dgramHdrSize = 2 + 1 + 1 + 4 + 8
	// shardFieldsSize is block(2) shard(1) k(1) leaf(4) leaves(4).
	shardFieldsSize = 2 + 1 + 1 + 4 + 4
	// MaxDgramSize bounds one datagram (jumbo-frame ceiling; the server
	// packs every shard packet into DgramMTU).
	MaxDgramSize = 9 << 10
	// DgramMTU is the UDP payload of one 1500-byte Ethernet frame over IPv4
	// (less the 20-byte IP and 8-byte UDP headers): every shard packet the
	// server sends fits it.
	DgramMTU = 1500 - 20 - 8
	// dgramDomain separates datagram root signatures from every other
	// signed blob.
	dgramDomain = "groupkey/dgram/v2"
	// HelloBody is the plaintext a subscriber seals under its leaf key.
	HelloBody = "groupkey-udp-subscribe"
)

// DgramType identifies a datagram's payload encoding.
type DgramType uint8

const (
	// DgramKeys is a source shard: (position, item) entries of one FEC block.
	DgramKeys DgramType = iota + 1
	// DgramParity is one Reed-Solomon parity shard of a block.
	DgramParity
	// DgramHello subscribes a member's UDP source address to the plane.
	DgramHello
	// DgramNack reports a member's per-block shard deficits and observed
	// loss (the Section 4.2 piggyback) after a repair timeout.
	DgramNack
)

// String implements fmt.Stringer.
func (t DgramType) String() string {
	switch t {
	case DgramKeys:
		return "keys"
	case DgramParity:
		return "parity"
	case DgramHello:
		return "hello"
	case DgramNack:
		return "nack"
	default:
		return fmt.Sprintf("DgramType(%d)", uint8(t))
	}
}

// Dgram is one parsed datagram. Structure only — server→client packets
// are checked separately (DgramVerifier) so receivers can cheaply drop
// garbage and stale epochs before paying for verification.
type Dgram struct {
	Type  DgramType
	Group GroupID
	Epoch uint64

	// Keys/Parity fields.
	Block   uint16
	Shard   uint8
	K       uint8
	Leaf    uint32 // the packet's leaf in the epoch's shard tree
	Leaves  uint32 // the epoch's packet count
	Payload []byte // Keys: unpadded shard bytes; Parity: padded parity bytes

	// Hello/Nack fields.
	Member keytree.MemberID
	Sealed []byte
}

func appendDgramHdr(buf []byte, t DgramType, g GroupID, epoch uint64) []byte {
	buf = append(buf, dgramMagic0, dgramMagic1, DgramVersion, byte(t))
	buf = binary.BigEndian.AppendUint32(buf, uint32(g))
	return binary.BigEndian.AppendUint64(buf, epoch)
}

// EpochShard is one source or parity shard of an epoch, before encoding.
type EpochShard struct {
	Type    DgramType // DgramKeys or DgramParity
	Block   uint16
	Shard   uint8
	K       uint8
	Payload []byte // Keys: unpadded canonical shard bytes; Parity: parity bytes
}

// shardTrailerSize is path ‖ root ‖ sig for a tree of the given leaves.
func shardTrailerSize(leaves uint32) int {
	return bits.Len32(leaves-1)*HashSize + HashSize + ed25519.SignatureSize
}

// ShardDgramSize is the size of a shard packet carrying payloadLen bytes in
// an epoch of leaves packets: its authentication path grows with
// log2(leaves).
func ShardDgramSize(payloadLen, leaves int) int {
	return dgramHdrSize + shardFieldsSize + payloadLen + shardTrailerSize(uint32(leaves))
}

// dgramSigningMessage is what an epoch's one datagram signature covers.
func dgramSigningMessage(g GroupID, epoch uint64, leaves uint32, root []byte) []byte {
	out := make([]byte, 0, len(dgramDomain)+4+8+4+HashSize)
	out = append(out, dgramDomain...)
	out = binary.BigEndian.AppendUint32(out, uint32(g))
	out = binary.BigEndian.AppendUint64(out, epoch)
	out = binary.BigEndian.AppendUint32(out, leaves)
	return append(out, root...)
}

// EncodeEpochDgrams encodes all of an epoch's shards as packets and signs
// them once: packet i's body is leaf i of a tree over the epoch's packet
// bodies, and every packet carries its path, the root and the one
// signature. The packets share one allocation. At most 2^32-1 shards.
func EncodeEpochDgrams(priv ed25519.PrivateKey, g GroupID, epoch uint64, shards []EpochShard) [][]byte {
	leaves := uint32(len(shards))
	trailer := shardTrailerSize(leaves)
	total := 0
	for _, sh := range shards {
		total += ShardDgramSize(len(sh.Payload), len(shards))
	}
	slab := make([]byte, 0, total)
	pkts := make([][]byte, len(shards))
	for i, sh := range shards {
		start := len(slab)
		slab = appendDgramHdr(slab, sh.Type, g, epoch)
		slab = binary.BigEndian.AppendUint16(slab, sh.Block)
		slab = append(slab, sh.Shard, sh.K)
		slab = binary.BigEndian.AppendUint32(slab, uint32(i))
		slab = binary.BigEndian.AppendUint32(slab, leaves)
		slab = append(slab, sh.Payload...)
		pkts[i] = slab[start:] // the body; its trailer is filled below
		slab = slab[:len(slab)+trailer]
	}
	tree := NewItemTree(len(shards), func(i int) []byte { return pkts[i] })
	root := tree.Root()
	sig := ed25519.Sign(priv, dgramSigningMessage(g, epoch, leaves, root[:]))
	for i, body := range pkts {
		pkt, _ := tree.AppendProof(body, []uint32{uint32(i)})
		pkt = append(append(pkt, root[:]...), sig...)
		pkts[i] = pkt[:len(pkt):len(pkt)]
	}
	return pkts
}

// EncodeShardDgram builds and signs one server→client shard packet as an
// epoch of one shard — t is DgramKeys (payload: unpadded canonical shard
// bytes) or DgramParity (payload: parity bytes).
func EncodeShardDgram(priv ed25519.PrivateKey, t DgramType, g GroupID, epoch uint64, block uint16, shard, k uint8, payload []byte) []byte {
	return EncodeEpochDgrams(priv, g, epoch, []EpochShard{{Type: t, Block: block, Shard: shard, K: k, Payload: payload}})[0]
}

// EncodeMemberDgram builds one client→server packet — t is DgramHello or
// DgramNack; sealed is the body sealed under the member's leaf key.
func EncodeMemberDgram(t DgramType, g GroupID, epoch uint64, m keytree.MemberID, sealed []byte) []byte {
	buf := make([]byte, 0, dgramHdrSize+8+len(sealed))
	buf = appendDgramHdr(buf, t, g, epoch)
	buf = binary.BigEndian.AppendUint64(buf, uint64(m))
	return append(buf, sealed...)
}

// DecodeDgram parses one datagram of any type.
func DecodeDgram(b []byte) (Dgram, error) {
	var d Dgram
	if len(b) > MaxDgramSize {
		return d, fmt.Errorf("%w: datagram %d bytes", ErrFrameTooLarge, len(b))
	}
	if len(b) < dgramHdrSize || b[0] != dgramMagic0 || b[1] != dgramMagic1 {
		return d, fmt.Errorf("%w: not a groupkey datagram", ErrMalformed)
	}
	if b[2] != DgramVersion {
		return d, fmt.Errorf("%w: datagram version %d", ErrMalformed, b[2])
	}
	d.Type = DgramType(b[3])
	d.Group = GroupID(binary.BigEndian.Uint32(b[4:8]))
	d.Epoch = binary.BigEndian.Uint64(b[8:16])
	rest := b[dgramHdrSize:]
	switch d.Type {
	case DgramKeys, DgramParity:
		if len(rest) < shardFieldsSize {
			return d, fmt.Errorf("%w: shard datagram %d bytes", ErrMalformed, len(b))
		}
		d.Block = binary.BigEndian.Uint16(rest[0:2])
		d.Shard = rest[2]
		d.K = rest[3]
		d.Leaf = binary.BigEndian.Uint32(rest[4:8])
		d.Leaves = binary.BigEndian.Uint32(rest[8:12])
		if d.K == 0 {
			return d, fmt.Errorf("%w: shard datagram with k=0", ErrMalformed)
		}
		if d.Leaf >= d.Leaves {
			return d, fmt.Errorf("%w: shard datagram leaf %d of %d", ErrMalformed, d.Leaf, d.Leaves)
		}
		payloadEnd := len(rest) - shardTrailerSize(d.Leaves)
		if payloadEnd < shardFieldsSize {
			return d, fmt.Errorf("%w: shard datagram %d bytes for %d leaves", ErrMalformed, len(b), d.Leaves)
		}
		d.Payload = rest[shardFieldsSize:payloadEnd]
	case DgramHello, DgramNack:
		if len(rest) < 8 {
			return d, fmt.Errorf("%w: member datagram %d bytes", ErrMalformed, len(b))
		}
		d.Member = keytree.MemberID(binary.BigEndian.Uint64(rest[0:8]))
		if d.Member == 0 {
			return d, fmt.Errorf("%w: zero member ID", ErrMalformed)
		}
		d.Sealed = rest[8:]
	default:
		return d, fmt.Errorf("%w: datagram type %d", ErrMalformed, b[3])
	}
	return d, nil
}

// DgramVerifier checks server→client shard packets against the one epoch
// root whose signature it last verified: the first packet of an epoch
// costs one Ed25519 verification, every other packet of that epoch its
// path of hashes and a comparison with the cached root and signature. A
// packet whose root misses the cache costs one verification, as every
// packet did when each was signed alone. Not safe for concurrent use.
type DgramVerifier struct {
	pub  ed25519.PublicKey
	lh   leafHasher
	leaf [HashSize]byte
	// The verified root: sig covered (group, epoch, leaves, root).
	cached bool
	group  GroupID
	epoch  uint64
	leaves uint32
	root   [HashSize]byte
	sig    [ed25519.SignatureSize]byte
}

// NewDgramVerifier returns a verifier for packets signed by pub.
func NewDgramVerifier(pub ed25519.PublicKey) *DgramVerifier {
	return &DgramVerifier{pub: pub}
}

// Verify reports whether b is an authentic shard packet: its body hashes
// along its path to its root, and that root's signature — the cached one,
// or a fresh verification — covers its group, epoch and leaf count. A
// freshly verified root replaces the cached one unless it is for an older
// epoch.
func (v *DgramVerifier) Verify(b []byte) bool {
	d, err := DecodeDgram(b)
	if err != nil || (d.Type != DgramKeys && d.Type != DgramParity) || len(v.pub) != ed25519.PublicKeySize {
		return false
	}
	tail := b[len(b)-shardTrailerSize(d.Leaves):]
	path := tail[:len(tail)-HashSize-ed25519.SignatureSize]
	root := [HashSize]byte(tail[len(path) : len(path)+HashSize])
	sig := tail[len(path)+HashSize:]
	v.lh.sumInto(v.leaf[:], b[:len(b)-len(tail)])
	if VerifyItemProof(int(d.Leaves), []uint32{d.Leaf}, [][]byte{v.leaf[:]}, path, root) != nil {
		return false
	}
	if v.cached && v.group == d.Group && v.epoch == d.Epoch && v.leaves == d.Leaves && v.root == root {
		return bytes.Equal(v.sig[:], sig)
	}
	if !ed25519.Verify(v.pub, dgramSigningMessage(d.Group, d.Epoch, d.Leaves, root[:]), sig) {
		return false
	}
	if !v.cached || d.Epoch >= v.epoch {
		v.cached, v.group, v.epoch, v.leaves, v.root = true, d.Group, d.Epoch, d.Leaves, root
		copy(v.sig[:], sig)
	}
	return true
}

// VerifyDgram checks one shard packet with a fresh DgramVerifier.
func VerifyDgram(pub ed25519.PublicKey, b []byte) bool {
	return NewDgramVerifier(pub).Verify(b)
}

// AppendShardEntry appends one (position, item) entry to a shard being
// assembled. The caller owns the 2-byte entry-count prefix.
func AppendShardEntry(buf []byte, pos uint32, item []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, pos)
	return append(buf, item...)
}

// shardEntrySize is position(4) + item encoding.
const shardEntrySize = 4 + RekeyItemSize

// ShardSize is the canonical (padded) source shard size for kpd entries.
func ShardSize(kpd int) int { return 2 + kpd*shardEntrySize }

// ShardKeys is ShardSize's inverse: the entries a shardSize-byte source
// shard holds.
func ShardKeys(shardSize int) int { return (shardSize - 2) / shardEntrySize }

// ParseShardEntries splits a source shard's canonical bytes (count ‖
// entries, with optional zero padding after a reconstruction) into
// positions and item encodings.
func ParseShardEntries(shard []byte) (idx []uint32, items [][]byte, err error) {
	if len(shard) < 2 {
		return nil, nil, fmt.Errorf("%w: shard %d bytes", ErrMalformed, len(shard))
	}
	count := int(binary.BigEndian.Uint16(shard[0:2]))
	rest := shard[2:]
	if len(rest) < count*shardEntrySize {
		return nil, nil, fmt.Errorf("%w: shard carries %d entries in %d bytes", ErrMalformed, count, len(rest))
	}
	idx = make([]uint32, count)
	items = make([][]byte, count)
	for i := 0; i < count; i++ {
		e := rest[i*shardEntrySize : (i+1)*shardEntrySize]
		idx[i] = binary.BigEndian.Uint32(e[0:4])
		items[i] = e[4:]
	}
	return idx, items, nil
}

// NackBlock is one block's receipt report: how many distinct shards of it
// the member holds.
type NackBlock struct {
	Block uint16
	Have  uint8
}

// NackBody is the sealed body of a DgramNack: the epoch it reports on
// (re-checked against the header so a replayed NACK cannot cross epochs),
// the member's observed loss in permille (the Section 4.2 piggyback that
// feeds the server's parity sizing), and per-block deficits.
type NackBody struct {
	Epoch        uint64
	LossPermille uint16
	Blocks       []NackBlock
}

// Encode serializes the NACK body for sealing.
func (n NackBody) Encode() []byte {
	out := make([]byte, 0, 11+3*len(n.Blocks))
	out = binary.BigEndian.AppendUint64(out, n.Epoch)
	out = binary.BigEndian.AppendUint16(out, n.LossPermille)
	out = append(out, byte(len(n.Blocks)))
	for _, b := range n.Blocks {
		out = binary.BigEndian.AppendUint16(out, b.Block)
		out = append(out, b.Have)
	}
	return out
}

// DecodeNackBody parses an unsealed NACK body.
func DecodeNackBody(b []byte) (NackBody, error) {
	var n NackBody
	if len(b) < 11 {
		return n, fmt.Errorf("%w: nack body %d bytes", ErrMalformed, len(b))
	}
	n.Epoch = binary.BigEndian.Uint64(b[0:8])
	n.LossPermille = binary.BigEndian.Uint16(b[8:10])
	count := int(b[10])
	rest := b[11:]
	if len(rest) != 3*count {
		return n, fmt.Errorf("%w: nack reports %d blocks in %d bytes", ErrMalformed, count, len(rest))
	}
	n.Blocks = make([]NackBlock, count)
	for i := range n.Blocks {
		n.Blocks[i] = NackBlock{
			Block: binary.BigEndian.Uint16(rest[3*i:]),
			Have:  rest[3*i+2],
		}
	}
	return n, nil
}
