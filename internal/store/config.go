package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"groupkey/internal/core"
	"groupkey/internal/keytree"
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

// SchemeConfig is the serializable recipe for a scheme construction.
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
	// produces: recovery must replay with the same setting or the rebuilt
	// state diverges from the log.
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

// restoreOptions returns the extra core options a snapshot restore needs
// to reproduce construction settings the scheme blob itself does not
// carry (currently the batch placement planner). Nil-safe: an unknown
// config contributes nothing.
func (c *SchemeConfig) restoreOptions() []core.Option {
	if c == nil || !c.Planner {
		return nil
	}
	return []core.Option{core.WithPlanner(keytree.PlannerConfig{})}
}

func errBadConfig(k SchemeKind) error {
	return fmt.Errorf("unknown scheme kind %d", uint8(k))
}

// encode serializes the config for the create record. The planner flag
// is a trailing byte so pre-planner logs (which end right after the
// bounds) still decode.
func (c SchemeConfig) encode() []byte {
	out := []byte{byte(c.Kind)}
	out = binary.BigEndian.AppendUint32(out, uint32(c.Degree))
	out = binary.BigEndian.AppendUint64(out, uint64(c.SPeriodK))
	out = binary.BigEndian.AppendUint32(out, uint32(c.Trees))
	out = binary.BigEndian.AppendUint32(out, uint32(len(c.LossBounds)))
	for _, b := range c.LossBounds {
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(b))
	}
	if c.Planner {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	return out
}

// decodeSchemeConfig parses a create-record payload. Records written
// before the planner flag existed end immediately after the bounds;
// they decode with Planner false.
func decodeSchemeConfig(b []byte) (SchemeConfig, error) {
	var c SchemeConfig
	if len(b) < 1+4+8+4+4 {
		return c, fmt.Errorf("store: create record too short (%d bytes)", len(b))
	}
	c.Kind = SchemeKind(b[0])
	c.Degree = int(binary.BigEndian.Uint32(b[1:5]))
	c.SPeriodK = int(binary.BigEndian.Uint64(b[5:13]))
	c.Trees = int(binary.BigEndian.Uint32(b[13:17]))
	n := int(binary.BigEndian.Uint32(b[17:21]))
	rest := b[21:]
	switch len(rest) {
	case 8 * n:
	case 8*n + 1:
		c.Planner = rest[8*n] != 0
	default:
		return c, fmt.Errorf("store: create record bounds length mismatch")
	}
	for i := 0; i < n; i++ {
		c.LossBounds = append(c.LossBounds,
			math.Float64frombits(binary.BigEndian.Uint64(rest[8*i:])))
	}
	return c, nil
}
