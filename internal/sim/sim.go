// Package sim runs end-to-end discrete simulations of group rekeying: a
// workload generator produces membership churn, a key-management scheme
// (internal/core) processes it in periodic batches, and optionally a
// reliable rekey transport (internal/transport) delivers every payload over
// a lossy multicast network (internal/netsim).
//
// The paper's evaluation is purely analytic; this package exists to
// cross-validate the analytic models against a running system and to
// exercise the schemes' actual key trees, crypto and transport code paths
// at scale.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keytree"
	"groupkey/internal/member"
	"groupkey/internal/netsim"
	"groupkey/internal/transport"
	"groupkey/internal/wire"
	"groupkey/internal/workload"
)

// Simulation errors.
var ErrBadConfig = errors.New("sim: invalid configuration")

// Config parameterizes one simulation run.
type Config struct {
	Seed      uint64
	GroupSize int     // steady-state group size to prime and sustain
	Periods   int     // rekey periods to simulate
	Tp        float64 // seconds per rekey period
	Warmup    int     // periods excluded from aggregate statistics

	Durations workload.TwoClass
	Loss      workload.LossModel

	// Trace, when non-nil, replays a recorded workload instead of
	// generating one: GroupSize, Durations and Loss are then ignored and
	// the trace's primed population and events drive the run. Use
	// workload.Session.Record / workload.ReadTrace to obtain one.
	Trace *workload.Trace

	// Scheme is the key management scheme under test (already built).
	Scheme core.Scheme
	// Transport, when non-nil, delivers every rekey stream over the lossy
	// network and records transport-level costs.
	Transport transport.Protocol

	// ReportLoss maps a member's true loss rate to what it reports at join
	// time; nil reports the truth. Used for the misplacement experiment
	// (Fig. 7).
	ReportLoss func(info workload.MemberInfo) float64

	// VerifyCrypto maintains real client-side members and checks, every
	// period, that all members can decrypt to the group key. Expensive;
	// meant for tests.
	VerifyCrypto bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Periods < 1:
		return fmt.Errorf("%w: periods=%d", ErrBadConfig, c.Periods)
	case c.Tp <= 0:
		return fmt.Errorf("%w: tp=%v", ErrBadConfig, c.Tp)
	case c.Warmup < 0 || c.Warmup >= c.Periods:
		return fmt.Errorf("%w: warmup=%d of %d periods", ErrBadConfig, c.Warmup, c.Periods)
	case c.Scheme == nil:
		return fmt.Errorf("%w: nil scheme", ErrBadConfig)
	}
	if c.Trace != nil {
		if len(c.Trace.Primed) == 0 && len(c.Trace.Events) == 0 {
			return fmt.Errorf("%w: empty trace", ErrBadConfig)
		}
		return nil
	}
	switch {
	case c.GroupSize < 1:
		return fmt.Errorf("%w: groupSize=%d", ErrBadConfig, c.GroupSize)
	case c.Durations.Short == nil || c.Durations.Long == nil:
		return fmt.Errorf("%w: incomplete duration model", ErrBadConfig)
	}
	return nil
}

// PeriodStats records one rekey period.
type PeriodStats struct {
	Epoch         uint64
	Joins, Leaves int
	GroupSize     int
	MulticastKeys int // the paper's rekeying-cost metric
	TotalKeys     int // including joiner bootstrap items
	TransportKeys int // keys actually transmitted incl. replication/retx
	TransportPkts int
	Rounds        int
	RekeySeconds  float64 // wall-clock time of the scheme's ProcessBatch call
}

// FairnessStats aggregates the rekey packets heard by one loss class —
// Section 4.4's inter-receiver fairness lens. With one IP multicast group
// per key tree, a member hears every packet of its tree's stream, needed
// or not; low-loss members should not have to hear the retransmission
// traffic provoked by high-loss members in another tree.
type FairnessStats struct {
	Members     int
	MeanPackets float64 // mean stream packets heard per member of the class
}

// Result aggregates a run.
type Result struct {
	Periods []PeriodStats

	// Aggregates over the post-warmup periods.
	MeanMulticastKeys float64
	MeanTransportKeys float64
	MeanJoins         float64
	MeanLeaves        float64
	MeanGroupSize     float64

	// FairnessByLossRate groups per-receiver delivered-packet counts by
	// the members' true loss rates (populated when a Transport runs).
	FairnessByLossRate map[float64]FairnessStats
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	horizon := float64(cfg.Periods) * cfg.Tp
	trace := cfg.Trace
	if trace == nil {
		session, err := workload.NewSession(workload.Config{
			Seed:        cfg.Seed,
			ArrivalRate: workload.ArrivalRateForGroupSize(float64(cfg.GroupSize), cfg.Durations),
			Durations:   cfg.Durations,
			Loss:        cfg.Loss,
		})
		if err != nil {
			return nil, err
		}
		trace = session.Record(cfg.GroupSize, horizon)
	}
	net := netsim.New(cfg.Seed ^ 0x5bf03635)

	report := cfg.ReportLoss
	if report == nil {
		report = func(info workload.MemberInfo) float64 { return info.LossRate }
	}

	var clients map[keytree.MemberID]*member.Member
	if cfg.VerifyCrypto {
		clients = make(map[keytree.MemberID]*member.Member, len(trace.Primed))
	}

	// Prime the group: all initial members in one epoch-0 batch.
	primeBatch := core.Batch{}
	for _, info := range trace.Primed {
		primeBatch.Joins = append(primeBatch.Joins, joinFor(info, report))
		if err := net.AddReceiver(info.ID, netsim.Bernoulli{P: info.LossRate}); err != nil {
			return nil, err
		}
	}
	r0, err := cfg.Scheme.ProcessBatch(primeBatch)
	if err != nil {
		return nil, fmt.Errorf("sim: priming: %w", err)
	}
	if cfg.VerifyCrypto {
		if err := applyAndVerify(cfg.Scheme, clients, core.Batch{}, r0); err != nil {
			return nil, err
		}
		// applyAndVerify above only covers existing clients; register the
		// primed joiners explicitly.
		if err := admitJoiners(cfg.Scheme, clients, r0, primeBatch); err != nil {
			return nil, err
		}
	}

	batches := workload.PeriodBatches(trace.Events, cfg.Tp, horizon)

	res := &Result{Periods: make([]PeriodStats, 0, len(batches))}
	heard := make(map[keytree.MemberID]int)
	for _, kb := range batches {
		b := core.Batch{Leaves: kb.Leaves}
		for _, m := range kb.Joins {
			info, ok := trace.Members[m]
			if !ok {
				return nil, fmt.Errorf("sim: workload produced unknown member %d", m)
			}
			b.Joins = append(b.Joins, joinFor(info, report))
		}

		rekeyStart := time.Now()
		rekey, err := cfg.Scheme.ProcessBatch(b)
		if err != nil {
			return nil, fmt.Errorf("sim: epoch %d: %w", rekeyEpoch(rekey), err)
		}

		ps := PeriodStats{
			Epoch:         rekey.Epoch,
			Joins:         len(b.Joins),
			Leaves:        len(b.Leaves),
			GroupSize:     cfg.Scheme.Size(),
			MulticastKeys: rekey.MulticastKeyCount(),
			TotalKeys:     rekey.TotalKeyCount(),
			RekeySeconds:  time.Since(rekeyStart).Seconds(),
		}

		// Network membership follows group membership.
		for _, j := range b.Joins {
			info := trace.Members[j.ID]
			if err := net.AddReceiver(j.ID, netsim.Bernoulli{P: info.LossRate}); err != nil {
				return nil, err
			}
		}

		if cfg.Transport != nil {
			// The transports read explicit receiver lists; multicast items
			// are path-addressed, so derive the lists for the whole group.
			// AllItems lists every stream's Items first, in stream order.
			addressed := wire.Addressed(rekey.AllItems(), cfg.Scheme.Members(), cfg.Scheme.PathIDs)
			for _, st := range rekey.Streams {
				items := addressed[:len(st.Items)]
				addressed = addressed[len(st.Items):]
				if len(items) == 0 {
					continue
				}
				tres, err := cfg.Transport.Deliver(items, net)
				if err != nil {
					return nil, fmt.Errorf("sim: transporting stream %q: %w", st.Label, err)
				}
				ps.TransportKeys += tres.KeysSent
				ps.TransportPkts += tres.PacketsSent
				if tres.Rounds > ps.Rounds {
					ps.Rounds = tres.Rounds
				}
				// Every subscriber of the stream's multicast group hears
				// all of its packets (Section 4.4 fairness accounting).
				for _, m := range st.Audience {
					heard[m] += tres.PacketsSent
				}
			}
		}

		// Departed members leave the network after the rekey is delivered.
		for _, m := range b.Leaves {
			if err := net.RemoveReceiver(m); err != nil {
				return nil, err
			}
		}

		if cfg.VerifyCrypto {
			if err := applyAndVerify(cfg.Scheme, clients, b, rekey); err != nil {
				return nil, fmt.Errorf("sim: epoch %d: %w", rekey.Epoch, err)
			}
			if err := admitJoiners(cfg.Scheme, clients, rekey, b); err != nil {
				return nil, fmt.Errorf("sim: epoch %d: %w", rekey.Epoch, err)
			}
		}

		res.Periods = append(res.Periods, ps)
	}

	// Aggregate post-warmup.
	n := 0
	for i, ps := range res.Periods {
		if i < cfg.Warmup {
			continue
		}
		n++
		res.MeanMulticastKeys += float64(ps.MulticastKeys)
		res.MeanTransportKeys += float64(ps.TransportKeys)
		res.MeanJoins += float64(ps.Joins)
		res.MeanLeaves += float64(ps.Leaves)
		res.MeanGroupSize += float64(ps.GroupSize)
	}
	if n > 0 {
		res.MeanMulticastKeys /= float64(n)
		res.MeanTransportKeys /= float64(n)
		res.MeanJoins /= float64(n)
		res.MeanLeaves /= float64(n)
		res.MeanGroupSize /= float64(n)
	}

	if cfg.Transport != nil {
		res.FairnessByLossRate = make(map[float64]FairnessStats)
		for id, info := range trace.Members {
			packets, ok := heard[id]
			if !ok {
				continue // never subscribed (e.g. flash member)
			}
			f := res.FairnessByLossRate[info.LossRate]
			f.Members++
			f.MeanPackets += float64(packets)
			res.FairnessByLossRate[info.LossRate] = f
		}
		for rate, f := range res.FairnessByLossRate {
			f.MeanPackets /= float64(f.Members)
			res.FairnessByLossRate[rate] = f
		}
	}
	return res, nil
}

func rekeyEpoch(r *core.Rekey) uint64 {
	if r == nil {
		return 0
	}
	return r.Epoch
}

func joinFor(info workload.MemberInfo, report func(workload.MemberInfo) float64) core.Join {
	return core.Join{
		ID: info.ID,
		Meta: core.MemberMeta{
			LossRate:  report(info),
			LongLived: info.Class == workload.ClassLong,
		},
	}
}

// applyAndVerify feeds the payload to existing clients, evicts leavers and
// checks that every remaining client reaches the group key.
func applyAndVerify(s core.Scheme, clients map[keytree.MemberID]*member.Member, b core.Batch, r *core.Rekey) error {
	items := r.AllItems()
	for _, m := range b.Leaves {
		c := clients[m]
		if c == nil {
			return fmt.Errorf("sim: no client for leaver %d", m)
		}
		if learned := c.Apply(items); learned != 0 {
			return fmt.Errorf("sim: departed member %d decrypted %d items", m, learned)
		}
		delete(clients, m)
	}
	for _, c := range clients {
		c.Apply(items)
	}
	if s.Size() == 0 {
		return nil
	}
	dek, err := s.GroupKey()
	if err != nil {
		return err
	}
	for id, c := range clients {
		if !c.Has(dek) {
			return fmt.Errorf("sim: member %d lacks the group key", id)
		}
	}
	return nil
}

// admitJoiners creates clients for this batch's joiners and verifies their
// bootstrap.
func admitJoiners(s core.Scheme, clients map[keytree.MemberID]*member.Member, r *core.Rekey, b core.Batch) error {
	items := r.AllItems()
	dek, err := s.GroupKey()
	if err != nil {
		if errors.Is(err, core.ErrEmptyGroup) {
			return nil
		}
		return err
	}
	for _, j := range b.Joins {
		wk, ok := r.Welcome[j.ID]
		if !ok {
			return fmt.Errorf("sim: no welcome key for joiner %d", j.ID)
		}
		c := member.New(j.ID, wk)
		c.Apply(items)
		if !c.Has(dek) {
			return fmt.Errorf("sim: joiner %d failed to bootstrap the group key", j.ID)
		}
		clients[j.ID] = c
	}
	return nil
}

// SteadyStateError quantifies how far the simulated mean deviates from an
// analytic prediction, as |sim − model| / model.
func SteadyStateError(simulated, model float64) float64 {
	if model == 0 {
		return math.Abs(simulated)
	}
	return math.Abs(simulated-model) / model
}
