package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"groupkey/internal/store"
	"groupkey/internal/vfs"
)

// Shard ownership is arbitrated by a lease authority: a node that wants to
// serve a shard acquires (or renews) a time-bounded lease on it, and every
// change of owner raises the shard's fence epoch. The epoch is what makes
// deposition safe — a primary that lost its lease fails its fence check
// locally, and any record it manages to emit carries a stale epoch that
// every follower rejects.

// Lease records one shard's current ownership.
type Lease struct {
	Shard ShardID
	Owner NodeID
	// Epoch increments every time the shard changes hands (or continuity
	// is lost — an owner re-acquiring after expiry gets a fresh epoch).
	Epoch uint64
	// Expires is when the lease lapses unless renewed.
	Expires time.Time
}

// ErrLeaseHeld reports an Acquire against a shard whose unexpired lease
// belongs to another node.
var ErrLeaseHeld = errors.New("cluster: lease held by another node")

// Authority arbitrates shard leases. Implementations must be safe for
// concurrent use.
type Authority interface {
	// Acquire obtains the shard lease for node, renewing it when node
	// already holds it. It fails with ErrLeaseHeld (wrapped) while another
	// node's lease is still live.
	Acquire(shard ShardID, node NodeID, ttl time.Duration) (Lease, error)
	// Peek reports the shard's current lease without touching it;
	// ok is false when no unexpired lease exists.
	Peek(shard ShardID) (Lease, bool)
}

// MemAuthority is an in-memory lease authority for in-process clusters and
// deterministic tests: its clock is injectable, and Expire force-lapses a
// lease to simulate a dead primary without waiting out the TTL.
type MemAuthority struct {
	mu     sync.Mutex
	now    func() time.Time
	leases map[ShardID]Lease
}

// NewMemAuthority builds a MemAuthority on the given clock (nil means
// time.Now).
func NewMemAuthority(now func() time.Time) *MemAuthority {
	if now == nil {
		now = time.Now
	}
	return &MemAuthority{now: now, leases: make(map[ShardID]Lease)}
}

// Acquire implements Authority.
func (a *MemAuthority) Acquire(shard ShardID, node NodeID, ttl time.Duration) (Lease, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	cur, ok := a.leases[shard]
	live := ok && now.Before(cur.Expires)
	if live && cur.Owner != node {
		return Lease{}, fmt.Errorf("%w: shard %d owned by %s until %s",
			ErrLeaseHeld, shard, cur.Owner, cur.Expires.Format(time.RFC3339))
	}
	next := Lease{Shard: shard, Owner: node, Epoch: cur.Epoch, Expires: now.Add(ttl)}
	if !live || cur.Owner != node {
		next.Epoch++ // ownership (or continuity) changed
	}
	a.leases[shard] = next
	return next, nil
}

// Peek implements Authority.
func (a *MemAuthority) Peek(shard ShardID) (Lease, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur, ok := a.leases[shard]
	if !ok || !a.now().Before(cur.Expires) {
		return Lease{}, false
	}
	return cur, true
}

// Expire force-lapses the shard's lease, simulating the owner's death.
// The next Acquire by any node gets a fresh epoch.
func (a *MemAuthority) Expire(shard ShardID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cur, ok := a.leases[shard]; ok {
		cur.Expires = a.now().Add(-time.Nanosecond)
		a.leases[shard] = cur
	}
}

// DirAuthority arbitrates leases through files in a directory shared by
// every node's process (same machine or shared filesystem) — the CI soak
// topology. One file per shard holds "owner epoch expiresUnixNano"; writes
// go through an exclusive lock file plus an atomic rename, so readers
// never observe a torn lease and two nodes cannot both win an expired
// shard.
type DirAuthority struct {
	dir string
}

// NewDirAuthority opens (creating if needed) a shared lease directory.
func NewDirAuthority(dir string) (*DirAuthority, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("cluster: lease dir: %w", err)
	}
	return &DirAuthority{dir: dir}, nil
}

func (a *DirAuthority) leasePath(shard ShardID) string {
	return filepath.Join(a.dir, fmt.Sprintf("shard-%d.lease", shard))
}

// lockShard takes the shard's exclusive advisory lock, breaking locks left
// by crashed processes (older than staleLockAge). The returned func
// releases it.
func (a *DirAuthority) lockShard(shard ShardID) (func(), error) {
	const staleLockAge = 10 * time.Second
	path := a.leasePath(shard) + ".lock"
	for attempt := 0; ; attempt++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
		if err == nil {
			f.Close()
			return func() { os.Remove(path) }, nil
		}
		if !os.IsExist(err) {
			return nil, err
		}
		if st, serr := os.Stat(path); serr == nil && time.Since(st.ModTime()) > staleLockAge {
			os.Remove(path) // crashed holder; break the lock
			continue
		}
		if attempt >= 50 {
			return nil, fmt.Errorf("cluster: shard %d lease locked", shard)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// readLease parses the shard's lease file; ok is false when absent.
func (a *DirAuthority) readLease(shard ShardID) (Lease, bool, error) {
	raw, err := os.ReadFile(a.leasePath(shard))
	if os.IsNotExist(err) {
		return Lease{}, false, nil
	}
	if err != nil {
		return Lease{}, false, err
	}
	fields := strings.Fields(string(raw))
	if len(fields) != 3 {
		return Lease{}, false, fmt.Errorf("cluster: lease file for shard %d malformed", shard)
	}
	epoch, err1 := strconv.ParseUint(fields[1], 10, 64)
	nanos, err2 := strconv.ParseInt(fields[2], 10, 64)
	if err1 != nil || err2 != nil {
		return Lease{}, false, fmt.Errorf("cluster: lease file for shard %d malformed", shard)
	}
	return Lease{
		Shard:   shard,
		Owner:   NodeID(fields[0]),
		Epoch:   epoch,
		Expires: time.Unix(0, nanos),
	}, true, nil
}

// writeLease persists the lease atomically and durably.
func (a *DirAuthority) writeLease(l Lease) error {
	body := fmt.Sprintf("%s %d %d\n", l.Owner, l.Epoch, l.Expires.UnixNano())
	return store.WriteFileDurable(vfs.OS{}, a.leasePath(l.Shard), []byte(body))
}

// Acquire implements Authority.
func (a *DirAuthority) Acquire(shard ShardID, node NodeID, ttl time.Duration) (Lease, error) {
	unlock, err := a.lockShard(shard)
	if err != nil {
		return Lease{}, err
	}
	defer unlock()
	cur, ok, err := a.readLease(shard)
	if err != nil {
		return Lease{}, err
	}
	now := time.Now()
	live := ok && now.Before(cur.Expires)
	if live && cur.Owner != node {
		return Lease{}, fmt.Errorf("%w: shard %d owned by %s", ErrLeaseHeld, shard, cur.Owner)
	}
	next := Lease{Shard: shard, Owner: node, Epoch: cur.Epoch, Expires: now.Add(ttl)}
	if !live || cur.Owner != node {
		next.Epoch++
	}
	if err := a.writeLease(next); err != nil {
		return Lease{}, err
	}
	return next, nil
}

// Peek implements Authority.
func (a *DirAuthority) Peek(shard ShardID) (Lease, bool) {
	cur, ok, err := a.readLease(shard)
	if err != nil || !ok || !time.Now().Before(cur.Expires) {
		return Lease{}, false
	}
	return cur, true
}
