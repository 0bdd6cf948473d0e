// Package core implements the key server's group key management schemes —
// the paper's contribution and its baselines:
//
//   - OneTree: the unoptimized single balanced LKH tree (the scheme every
//     prior protocol in Section 2 uses).
//   - Naive: unicast rekeying without a key tree, the O(N) strawman.
//   - TwoPartition: the Section 3 optimization. The key tree is split into
//     a short-term (S) and a long-term (L) partition under the group key;
//     joiners enter S and migrate to L after surviving the S-period. Three
//     constructions: QT (S is a flat queue), TT (S is a tree) and PT (the
//     oracle that knows member classes at join time).
//   - LossHomogenized: the Section 4 optimization — one key tree per loss
//     class, so high-loss members stop inflating the replication of keys
//     that only low-loss members need.
//   - RandomMultiTree: the Fig. 6 control — multiple trees with random
//     member placement.
//
// Every scheme maintains real keys (internal/keycrypt) in real trees
// (internal/keytree) and emits rekey payloads that members can actually
// decrypt; costs reported by experiments are counts over these payloads,
// not estimates.
package core

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// Scheme errors.
var (
	ErrMemberExists  = errors.New("core: member already in group")
	ErrMemberUnknown = errors.New("core: no such member")
	ErrEmptyGroup    = errors.New("core: group is empty")
	ErrBadConfig     = errors.New("core: invalid configuration")
)

// MemberMeta carries the member characteristics the optimized schemes
// exploit (Sections 3 and 4). Zero values mean "unknown".
type MemberMeta struct {
	// LossRate is the estimated packet-loss probability of the member's
	// link, reported at join time (Section 4.2). Negative means unknown.
	LossRate float64
	// LongLived hints that the member belongs to the long-duration class;
	// only the PT oracle scheme uses it.
	LongLived bool
}

// Join is one joining member with its metadata.
type Join struct {
	ID   keytree.MemberID
	Meta MemberMeta
}

// Batch is one rekey period's worth of membership changes.
type Batch struct {
	Joins  []Join
	Leaves []keytree.MemberID
}

// IsEmpty reports whether the batch changes nothing.
func (b Batch) IsEmpty() bool { return len(b.Joins) == 0 && len(b.Leaves) == 0 }

// Stream is an independently transported set of rekey items. Multi-tree
// schemes emit one stream per key tree: the whole point of the
// loss-homogenized organization is that each tree's stream sees only that
// tree's receivers, so its transport replication is not driven by other
// trees' members.
type Stream struct {
	// Label names the originating partition/tree for reporting.
	Label string
	// Items are multicast to current members. They name no receivers: each
	// is path-addressed (keytree.Item.Receivers), reaching the members whose
	// Scheme.PathIDs hold its wrapping key, minus members an explicit item
	// of the same rekey — a joiner's — hands the same payload key.
	Items []keytree.Item
	// JoinerItems bootstrap joining (or migrating) members; they may be
	// unicast or ride the multicast channel.
	JoinerItems []keytree.Item
	// Audience lists the members subscribed to this stream's multicast
	// group, ascending — in a deployment with one IP multicast group per
	// key tree (Section 4.4) these members hear every packet of the stream,
	// needed or not. Fairness analysis builds on this; item addressing does
	// not. The slice is shared with the tree's maintained member list:
	// read-only, and it may outlive the epoch (a later batch publishes a
	// new list, never edits this one).
	Audience []keytree.MemberID
}

// Rekey is the output of one batch: everything the key server transmits.
type Rekey struct {
	// Epoch is the rekey sequence number (1 for the first batch).
	Epoch uint64
	// Streams are the per-tree item sets.
	Streams []Stream
	// Welcome holds each joiner's individual key, handed over the secure
	// registration channel (not counted as multicast rekey bandwidth).
	Welcome map[keytree.MemberID]keycrypt.Key
}

// MulticastKeyCount is the paper's rekeying-cost metric: encrypted keys
// multicast to current members.
func (r *Rekey) MulticastKeyCount() int {
	n := 0
	for _, s := range r.Streams {
		n += len(s.Items)
	}
	return n
}

// TotalKeyCount additionally counts joiner bootstrap items.
func (r *Rekey) TotalKeyCount() int {
	n := r.MulticastKeyCount()
	for _, s := range r.Streams {
		n += len(s.JoinerItems)
	}
	return n
}

// AllItems flattens every stream (multicast first, then joiner items).
func (r *Rekey) AllItems() []keytree.Item {
	var out []keytree.Item
	for _, s := range r.Streams {
		out = append(out, s.Items...)
	}
	for _, s := range r.Streams {
		out = append(out, s.JoinerItems...)
	}
	return out
}

// Scheme is a key-tree organization strategy run by the key server. Scheme
// implementations are not safe for concurrent use; the server serializes
// batches.
type Scheme interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// ProcessBatch applies one period's membership changes, rekeys, and
	// returns the payloads. Joins and leaves must be disjoint and valid.
	ProcessBatch(b Batch) (*Rekey, error)
	// GroupKey returns the current data-encryption key.
	GroupKey() (keycrypt.Key, error)
	// MemberKeys returns every key the member currently holds, leaf first,
	// group key last.
	MemberKeys(m keytree.MemberID) ([]keycrypt.Key, error)
	// PathIDs appends the IDs of MemberKeys(m), in the same order, to buf
	// and returns it; a member the scheme does not hold appends nothing.
	// The key server addresses each epoch's items by it (wire.ScopedIndex).
	PathIDs(m keytree.MemberID, buf []keycrypt.KeyID) []keycrypt.KeyID
	// Contains reports membership.
	Contains(m keytree.MemberID) bool
	// Size returns the current group size.
	Size() int
	// Members lists current members in ascending order.
	Members() []keytree.MemberID
	// Stats returns cumulative rekey counters and the current partition
	// sizes for observability; it never mutates the scheme.
	Stats() SchemeStats
	// Snapshot serializes the scheme's complete state — key material,
	// membership structure, epoch and counters — so a key server can
	// restart without a whole-group rekey. The blob contains every group
	// secret; callers own encryption at rest (internal/store seals it with
	// AES-GCM). RestoreScheme rebuilds any scheme from its blob.
	Snapshot() ([]byte, error)
}

// Option configures scheme construction.
type Option func(*options)

type options struct {
	rand         io.Reader
	degree       int
	keyIDBase    keycrypt.KeyID
	rekeyWorkers int
	planner      bool
}

// WithRand injects the entropy source (nil means crypto/rand); simulations
// pass keycrypt.NewDeterministicReader.
func WithRand(r io.Reader) Option {
	return func(o *options) { o.rand = r }
}

// WithDegree sets the key tree fan-out (default 4, the paper's d).
func WithDegree(d int) Option {
	return func(o *options) { o.degree = d }
}

// WithKeyIDBase offsets every key ID the scheme allocates. Key IDs are how
// members index their key stores, so two scheme instances whose payloads
// one member will ever process — in particular the source and destination
// of a Migrate — MUST use disjoint bases, or stale same-ID keys shadow new
// ones client-side.
func WithKeyIDBase(base keycrypt.KeyID) Option {
	return func(o *options) { o.keyIDBase = base }
}

// WithRekeyWorkers sizes the parallel rekey machinery: it is forwarded to
// every key tree as keytree.WithWrapWorkers, and multi-tree schemes rekey
// independent trees concurrently when the entropy source is crypto/rand
// (an injected deterministic reader forces tree-level rekeys serial so the
// entropy stream stays reproducible; within-tree emission remains parallel
// and deterministic either way). n <= 0 (the default) means GOMAXPROCS;
// n == 1 disables all concurrency.
func WithRekeyWorkers(n int) Option {
	return func(o *options) {
		if n < 0 {
			n = 0
		}
		o.rekeyWorkers = n
	}
}

// WithPlanner enables the batch placement planner (keytree.WithPlanner)
// on every key tree the scheme maintains. Planning is a pure function of
// tree shape and batch, so enabling it keeps deterministic replay intact —
// but snapshots do not record it, so restore paths must be handed the same
// option the original scheme was built with.
func WithPlanner(keytree.PlannerConfig) Option {
	return func(o *options) { o.planner = true }
}

// treeOptions assembles the keytree options every tree a scheme builds
// shares. first is the tree's first key ID; pass 0 to leave the default
// (restore paths, where the snapshot already carries the IDs).
func (o options) treeOptions(first keycrypt.KeyID) []keytree.Option {
	opts := []keytree.Option{keytree.WithRand(o.rand), keytree.WithWrapWorkers(o.rekeyWorkers)}
	if first != 0 {
		opts = append(opts, keytree.WithFirstKeyID(first))
	}
	if o.planner {
		opts = append(opts, keytree.WithPlanner(keytree.PlannerConfig{}))
	}
	return opts
}

// treeConcurrency reports whether tree-level rekeys may run concurrently.
func (o options) treeConcurrency() bool {
	return o.rand == nil && o.rekeyWorkers != 1
}

// rekeyOne pairs a tree with its batch for rekeyTrees.
type rekeyOne struct {
	tree  *keytree.Tree
	batch keytree.Batch
}

// rekeyTrees rekeys independent trees, concurrently when parallel is set
// and at least two trees have work. Empty batches are skipped (their
// payload slot stays nil). Results land at the same index as their input;
// the first error wins and is returned after all goroutines finish.
func rekeyTrees(parallel bool, work []rekeyOne) ([]*keytree.Payload, error) {
	payloads := make([]*keytree.Payload, len(work))
	busy := 0
	for _, w := range work {
		if !w.batch.IsEmpty() {
			busy++
		}
	}
	if !parallel || busy < 2 {
		for i, w := range work {
			if w.batch.IsEmpty() {
				continue
			}
			p, err := w.tree.Rekey(w.batch)
			if err != nil {
				return nil, err
			}
			payloads[i] = p
		}
		return payloads, nil
	}

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for i := range work {
		if work[i].batch.IsEmpty() {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := work[i].tree.Rekey(work[i].batch)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			payloads[i] = p
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return payloads, nil
}

func buildOptions(opts []Option) (options, error) {
	o := options{degree: 4}
	for _, fn := range opts {
		fn(&o)
	}
	if o.degree < 2 {
		return o, fmt.Errorf("%w: degree=%d", ErrBadConfig, o.degree)
	}
	return o, nil
}

// validateBatch performs the membership checks shared by all schemes.
func validateBatch(s Scheme, b Batch) error {
	seen := make(map[keytree.MemberID]bool, len(b.Joins)+len(b.Leaves))
	for _, j := range b.Joins {
		if j.ID == 0 {
			return keytree.ErrZeroMember
		}
		if seen[j.ID] {
			return fmt.Errorf("%w: member %d listed twice", keytree.ErrBatchConflict, j.ID)
		}
		seen[j.ID] = true
		if s.Contains(j.ID) {
			return fmt.Errorf("%w: %d", ErrMemberExists, j.ID)
		}
	}
	for _, m := range b.Leaves {
		if m == 0 {
			return keytree.ErrZeroMember
		}
		if seen[m] {
			return fmt.Errorf("%w: member %d both joins and leaves", keytree.ErrBatchConflict, m)
		}
		seen[m] = true
		if !s.Contains(m) {
			return fmt.Errorf("%w: %d", ErrMemberUnknown, m)
		}
	}
	return nil
}

// sortedMembers returns the keys of a member set in ascending order.
func sortedMembers[V any](m map[keytree.MemberID]V) []keytree.MemberID {
	out := make([]keytree.MemberID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// excludeSet builds a lookup of joiner IDs.
func excludeSet(joins []Join) map[keytree.MemberID]bool {
	out := make(map[keytree.MemberID]bool, len(joins))
	for _, j := range joins {
		out[j.ID] = true
	}
	return out
}

// keyHome is where a scheme keeps one member's keys: its path in a key
// tree, or (no tree) one individual key of its own, then the group key
// unless the tree's root is the group key itself.
type keyHome struct {
	m     keytree.MemberID
	ok    bool // the scheme holds m
	tree  *keytree.Tree
	own   keycrypt.Key
	group *keycrypt.Key
}

// appendHome is every scheme's one path walk, behind both MemberKeys and
// PathIDs: it appends conv of each key at h, leaf first, group key last.
func appendHome[T any](h keyHome, buf []T, conv func(keycrypt.Key) T) []T {
	switch {
	case !h.ok:
		return buf
	case h.tree != nil:
		buf = keytree.AppendPath(h.tree, h.m, buf, conv)
	default:
		buf = append(buf, conv(h.own))
	}
	if h.group != nil {
		buf = append(buf, conv(*h.group))
	}
	return buf
}

// keys is MemberKeys at h.
func (h keyHome) keys() ([]keycrypt.Key, error) {
	if !h.ok {
		return nil, fmt.Errorf("%w: %d", ErrMemberUnknown, h.m)
	}
	return appendHome(h, nil, func(k keycrypt.Key) keycrypt.Key { return k }), nil
}

// ids is PathIDs at h.
func (h keyHome) ids(buf []keycrypt.KeyID) []keycrypt.KeyID {
	return appendHome(h, buf, func(k keycrypt.Key) keycrypt.KeyID { return k.ID })
}
