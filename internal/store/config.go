package store

import (
	"errors"
	"fmt"
	"math"

	"groupkey/internal/core"
	"groupkey/internal/keytree"
	"groupkey/internal/snapcodec"
)

// SchemeKind identifies a scheme construction in the WAL's create record.
// Scheme constructors consume entropy (the initial DEK at least), so a
// fresh boot journals the construction itself — kind plus parameters —
// before building the scheme; recovery replays it under the same seed and
// obtains the same initial key material.
type SchemeKind uint8

const (
	SchemeOneTree SchemeKind = iota + 1
	SchemeNaive
	SchemeQT
	SchemeTT
	SchemePT
	SchemeLossHomog
	SchemeRandomMultiTree
)

// String implements fmt.Stringer.
func (k SchemeKind) String() string {
	switch k {
	case SchemeOneTree:
		return "onetree"
	case SchemeNaive:
		return "naive"
	case SchemeQT:
		return "qt"
	case SchemeTT:
		return "tt"
	case SchemePT:
		return "pt"
	case SchemeLossHomog:
		return "losshomog"
	case SchemeRandomMultiTree:
		return "randommulti"
	default:
		return fmt.Sprintf("SchemeKind(%d)", int(k))
	}
}

// SchemeConfig is the serializable recipe for a scheme construction: the
// create record's payload, and nothing else.
type SchemeConfig struct {
	Kind SchemeKind
	// Degree is the key-tree fan-out; 0 keeps the scheme default.
	Degree int
	// SPeriodK is the S-partition residency period for qt/tt/pt.
	SPeriodK int
	// Trees is the tree count for SchemeRandomMultiTree.
	Trees int
	// LossBounds are the ascending class bounds for SchemeLossHomog.
	LossBounds []float64
	// Planner enables the batch placement planner on every key tree
	// (core.WithPlanner; the planner has no settings). It lives in the
	// create record because planning changes which payloads a batch
	// produces: replay must build with the same setting or the rebuilt
	// state diverges from the log. Snapshots need no config: each
	// key-tree blob records its own planner flag.
	Planner bool
}

// ParseSchemeConfig maps a -scheme flag value (plus the -k period) to a
// config, mirroring keyserverd's historic flag vocabulary.
func ParseSchemeConfig(name string, k int) (SchemeConfig, error) {
	switch name {
	case "onetree":
		return SchemeConfig{Kind: SchemeOneTree}, nil
	case "naive":
		return SchemeConfig{Kind: SchemeNaive}, nil
	case "qt":
		return SchemeConfig{Kind: SchemeQT, SPeriodK: k}, nil
	case "tt":
		return SchemeConfig{Kind: SchemeTT, SPeriodK: k}, nil
	case "pt":
		return SchemeConfig{Kind: SchemePT, SPeriodK: k}, nil
	case "losshomog":
		return SchemeConfig{Kind: SchemeLossHomog, LossBounds: []float64{0.05}}, nil
	default:
		return SchemeConfig{}, fmt.Errorf("store: unknown scheme %q", name)
	}
}

// Build constructs the scheme. opts are appended after the config's own
// options, so callers inject the store's entropy source and worker count.
func (c SchemeConfig) Build(opts ...core.Option) (core.Scheme, error) {
	var all []core.Option
	if c.Degree > 0 {
		all = append(all, core.WithDegree(c.Degree))
	}
	if c.Planner {
		all = append(all, core.WithPlanner(keytree.PlannerConfig{}))
	}
	all = append(all, opts...)
	switch c.Kind {
	case SchemeOneTree:
		return core.NewOneTree(all...)
	case SchemeNaive:
		return core.NewNaive(all...)
	case SchemeQT:
		return core.NewTwoPartition(core.QT, c.SPeriodK, all...)
	case SchemeTT:
		return core.NewTwoPartition(core.TT, c.SPeriodK, all...)
	case SchemePT:
		return core.NewTwoPartition(core.PT, c.SPeriodK, all...)
	case SchemeLossHomog:
		return core.NewLossHomogenized(c.LossBounds, all...)
	case SchemeRandomMultiTree:
		return core.NewRandomMultiTree(c.Trees, all...)
	default:
		return nil, fmt.Errorf("store: %w", errBadConfig(c.Kind))
	}
}

func errBadConfig(k SchemeKind) error {
	return fmt.Errorf("unknown scheme kind %d", uint8(k))
}

// errBadCreateRecord reports an unreadable create-record payload.
var errBadCreateRecord = errors.New("store: malformed create record")

// replayRule, the create record's last byte, orders each record's entropy
// draws: under rule 2 wrap nonces are drawn at seal time, after every
// other draw, and a TT/QT migrant joins L with its key, drawing none. Rule
// 1 minted it a fresh leaf; rule 0 records (no byte) drew nonces in Advance.
const replayRule = 2

// encode serializes the config for the create record; the planner flag and
// the replay rule are the trailing bytes.
func (c SchemeConfig) encode() []byte {
	w := snapcodec.NewWriter("")
	w.U8(uint8(c.Kind))
	w.U32(uint32(c.Degree))
	w.U64(uint64(c.SPeriodK))
	w.U32(uint32(c.Trees))
	w.U32(uint32(len(c.LossBounds)))
	for _, b := range c.LossBounds {
		w.U64(math.Float64bits(b))
	}
	w.Bool(c.Planner)
	w.U8(replayRule)
	return w.Bytes()
}

// decodeSchemeConfig parses a create-record payload. Records written
// before the planner flag existed (ending right after the bounds) or
// under another replay rule are rejected.
func decodeSchemeConfig(b []byte) (SchemeConfig, error) {
	r := snapcodec.NewReader(b, "", errBadCreateRecord)
	c := SchemeConfig{
		Kind:     SchemeKind(r.U8()),
		Degree:   int(r.U32()),
		SPeriodK: int(r.U64()),
		Trees:    int(r.U32()),
	}
	n := int(r.U32())
	for i := 0; i < n && r.Err() == nil; i++ {
		c.LossBounds = append(c.LossBounds, math.Float64frombits(r.U64()))
	}
	c.Planner = r.Bool()
	rule := r.Rest()
	if err := r.Close(); err != nil {
		return SchemeConfig{}, err
	}
	switch {
	case len(rule) == 0:
		return SchemeConfig{}, fmt.Errorf("%w: replay rule 0 (wrap nonces drawn in Advance), want %d", errBadCreateRecord, replayRule)
	case rule[0] != replayRule:
		return SchemeConfig{}, fmt.Errorf("%w: replay rule %d, want %d", errBadCreateRecord, rule[0], replayRule)
	case len(rule) > 1:
		return SchemeConfig{}, fmt.Errorf("%w: %d trailing bytes", errBadCreateRecord, len(rule)-1)
	}
	return c, nil
}
