package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// Two-class churn (the paper's Section 3 model): a quarter of the joiners
// are long-duration members, the rest leave after a few epochs.
const (
	shortLife = 3
	longLife  = 60
	longShare = 0.25
)

// epochPlan is the membership change the driver asks of one epoch.
type epochPlan struct {
	leavers  []*probe
	joinLong []bool // one joiner per entry; true = long-duration class
}

// epochResult is everything measured in one epoch. Times are milliseconds
// from the RekeyNow call unless named otherwise.
type epochResult struct {
	epoch       uint64
	rekeyMs     float64 // RekeyNow call to return
	convergeMs  float64 // until the last live member held the frame
	broadcastMs float64 // mean Server.Broadcast call
	sendqMax    int64
	wraps       int

	deliver    []float64 // staying TCP probes
	subDeliver []float64 // datagram subscribers
	join       []float64 // joiners: welcome and first rekey both read
	data       []float64 // Broadcast call to data frame read, per member and frame
	readyUs    []float64
	applyUs    []float64
	wireBytes  []float64 // sparse payload bytes per staying probe
	keysHeld   []float64

	attempted, failed int
	firstErr          error

	// Phase boundaries on the bench clock: epoch begun, heap collected,
	// barrier passed (= RekeyNow called), RekeyNow returned, broadcasts
	// returned, last frame arrived, drain done, results folded.
	at struct{ start, collected, called, returned, broadcast, arrived, drained, end time.Duration }

	// What the server was given and what it produced, for the traced
	// run's per-layer replay.
	batch core.Batch
	rekey *core.Rekey
}

// nextPlan draws the next epoch's membership change from the seed.
func (e *env) nextPlan() *epochPlan {
	plan := &epochPlan{}
	if e.w.twoClass {
		next := e.ops + 1
		for _, p := range e.members {
			if !p.leaving && p.leaveAt != 0 && p.leaveAt <= next {
				plan.leavers = append(plan.leavers, p)
			}
		}
		joins := e.w.classJoins[next%2]
		for i := 0; i < joins; i++ {
			plan.joinLong = append(plan.joinLong, e.rng.Float64() < longShare)
		}
		return plan
	}
	var cands []*probe
	for _, p := range e.members {
		if !p.leaving {
			cands = append(cands, p)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].id < cands[j].id })
	k := e.w.replace
	if k > len(cands) {
		k = len(cands)
	}
	for _, i := range e.rng.Perm(len(cands))[:k] {
		plan.leavers = append(plan.leavers, cands[i])
	}
	plan.joinLong = make([]bool, e.w.replace)
	return plan
}

// runEpoch drives one epoch end to end: membership requests, the barrier,
// RekeyNow and the data broadcasts (the timed part), then the wait for the
// last frame and the untimed drain with its key checks. A nil plan is a
// heartbeat epoch that only admits whatever is already pending.
func (e *env) runEpoch(plan *epochPlan) (*epochResult, error) {
	if plan == nil {
		plan = &epochPlan{}
	}
	// Every epoch starts from a collected heap. The server shares this
	// process, and its heap, with a few thousand probe goroutines; left to
	// the pacer, a collection lands inside some RekeyNow calls and not
	// others, and the median flips between the two populations from run
	// to run (rekey_ms_p50 on churn100k: 115-165 ms unforced, 103-110 ms
	// forced). What the collector costs is reported on its own:
	// alloc_mb_per_epoch end to end, runtime.gc_ms_per_epoch per layer.
	start := e.clk.now()
	runtime.GC()
	collected := e.clk.now()
	for _, p := range plan.leavers {
		if err := p.leave(); err != nil {
			return nil, fmt.Errorf("member %d leave: %w", p.id, err)
		}
	}
	next := e.ops + 1
	for _, long := range plan.joinLong {
		p, err := e.join(long)
		if err != nil {
			return nil, err
		}
		if e.w.twoClass {
			p.leaveAt = next + shortLife
			if long {
				p.leaveAt = next + longLife
			}
		}
	}
	if err := e.waitRegistered(uint64(len(plan.joinLong)), uint64(len(plan.leavers))); err != nil {
		return nil, err
	}
	arrivedBase := e.arrived.Load()

	// Timed part: one driver goroutine, one epoch in flight.
	res := &epochResult{}
	payload := make([]byte, dataFrameSize)
	t0 := e.clk.now()
	rekey, err := e.srv.RekeyNow()
	t1 := e.clk.now()
	if err != nil {
		return nil, fmt.Errorf("RekeyNow: %w", err)
	}
	e.ops++
	res.sendqMax = e.srv.QueuedFrames()
	dataSent := make([]time.Duration, e.w.dataFrames)
	for i := range dataSent {
		dataSent[i] = e.clk.now()
		if err := e.srv.Broadcast(payload); err != nil {
			return nil, fmt.Errorf("Broadcast: %w", err)
		}
		if q := e.srv.QueuedFrames(); q > res.sendqMax {
			res.sendqMax = q
		}
	}
	t2 := e.clk.now()

	res.epoch, res.rekey = rekey.Epoch, rekey
	res.at.start, res.at.collected, res.at.called, res.at.returned, res.at.broadcast = start, collected, t0, t1, t2
	res.rekeyMs = ms(t1 - t0)
	res.wraps = rekey.TotalKeyCount()
	if n := len(dataSent); n > 0 {
		res.broadcastMs = ms(t2-t1) / float64(n)
	}

	// Which leavers the batch actually removed, and the key the group now
	// shares, read under the server lock.
	var gk keycrypt.Key
	var removed []*probe
	err = e.srv.BootstrapState(func(sc core.Scheme, _ keytree.MemberID) error {
		for _, p := range e.members {
			if p.leaving && !sc.Contains(p.id) {
				p.left = true
				removed = append(removed, p)
			}
		}
		var err error
		gk, err = sc.GroupKey()
		return err
	})
	if err != nil {
		return nil, err
	}
	admitted := len(rekey.Welcome)
	after := e.connected + admitted - len(removed)
	expected := int64(admitted + (e.connected + admitted) + len(dataSent)*after + len(e.subs))
	deadline := time.Now().Add(deliveryTimeout)
	for e.arrived.Load()-arrivedBase < expected && time.Now().Before(deadline) {
		time.Sleep(50 * time.Microsecond)
	}
	res.at.arrived = e.clk.now()

	// Untimed drain.
	active := append(append([]*probe(nil), e.members...), e.pendingJoin...)
	out := drainAll(active, int(res.epoch), gk.ID)
	res.at.drained = e.clk.now()

	fail := func(err error) {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
	}
	noteData := func(d drained) {
		for j, at := range d.dataAt {
			if j < len(dataSent) {
				res.data = append(res.data, ms(at-dataSent[j]))
			}
		}
	}
	var last time.Duration
	members := e.members[:0:0]
	for i, p := range active[:len(e.members)] {
		d := out[i]
		if p.left {
			// A leaver's final frame is not a delivery. Forward secrecy:
			// having applied everything it was sent, it must not hold the
			// key the group moved to.
			if d.err == nil && p.mem.Has(gk) {
				d.err = fmt.Errorf("member %d left in epoch %d and still holds the group key", p.id, res.epoch)
			}
			if d.err != nil {
				fail(d.err)
			}
			p.conn.Close()
			continue
		}
		members = append(members, p)
		res.attempted++
		if err := p.holds(d, res.epoch, gk); err != nil {
			fail(err)
			continue
		}
		if d.rekeyAt > last {
			last = d.rekeyAt
		}
		res.readyUs = append(res.readyUs, d.readyUs)
		res.applyUs = append(res.applyUs, d.applyUs)
		res.keysHeld = append(res.keysHeld, float64(p.mem.KeyCount()))
		noteData(d)
		if !p.leaving { // a carried leaver still gets the key, but is about to go
			res.deliver = append(res.deliver, ms(d.rekeyAt-t0))
			res.wireBytes = append(res.wireBytes, float64(d.rekeyLen))
		}
	}
	pending := e.pendingJoin[:0:0]
	for i, p := range e.pendingJoin {
		d := out[len(e.members)+i]
		if d.welcomeAt == 0 && d.err == nil {
			e.joinsCarried++
			pending = append(pending, p)
			continue
		}
		members = append(members, p)
		res.attempted++
		if err := p.holds(d, res.epoch, gk); err != nil {
			fail(err)
		} else {
			if d.rekeyAt > last {
				last = d.rekeyAt
			}
			res.join = append(res.join, ms(d.rekeyAt-t0))
			noteData(d)
		}
		if p.mem != nil {
			res.batch.Joins = append(res.batch.Joins, core.Join{ID: p.id, Meta: core.MemberMeta{LossRate: -1, LongLived: p.long}})
		}
	}
	sort.Slice(res.batch.Joins, func(i, j int) bool { return res.batch.Joins[i].ID < res.batch.Joins[j].ID })
	for _, p := range removed {
		res.batch.Leaves = append(res.batch.Leaves, p.id)
	}
	e.members, e.pendingJoin, e.connected = members, pending, after

	for i, c := range e.subs {
		res.attempted++
		s := &e.subSeen[i]
		s.mu.Lock()
		epoch, at := s.epoch, s.at
		s.mu.Unlock()
		switch {
		case epoch < res.epoch:
			fail(fmt.Errorf("subscriber %d: epoch %d not delivered within %v", c.ID(), res.epoch, deliveryTimeout))
		case !c.HasKey(gk):
			fail(fmt.Errorf("subscriber %d does not hold the epoch %d group key", c.ID(), res.epoch))
		default:
			if at > last {
				last = at
			}
			res.subDeliver = append(res.subDeliver, ms(at-t0))
		}
	}
	if last > 0 {
		res.convergeMs = ms(last - t0)
	}
	if len(members) != after {
		return nil, fmt.Errorf("epoch %d: driver tracks %d connected members, server arithmetic says %d", res.epoch, len(members), after)
	}
	res.at.end = e.clk.now()
	return res, nil
}

// drainAll drains every probe on GOMAXPROCS workers. One probe, rotating
// with the epoch, also opens a data frame.
func drainAll(active []*probe, epoch int, gk keycrypt.KeyID) []drained {
	out := make([]drained, len(active))
	if len(active) == 0 {
		return out
	}
	sample := epoch % len(active)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(active); i = int(next.Add(1)) - 1 {
				out[i] = active[i].drain(i == sample, gk)
			}
		}()
	}
	wg.Wait()
	return out
}

// holds checks that a live member ended the epoch with what it should
// have: its frame, applied, and the group key.
func (p *probe) holds(d drained, epoch uint64, gk keycrypt.Key) error {
	switch {
	case d.err != nil:
		return d.err
	case d.rekeyAt == 0 || p.epoch != epoch:
		return fmt.Errorf("member %d: epoch %d not delivered within %v", p.id, epoch, deliveryTimeout)
	case !p.mem.Has(gk):
		return fmt.Errorf("member %d does not hold the epoch %d group key", p.id, epoch)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
