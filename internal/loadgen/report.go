package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// ReportFormatVersion is the schema version EncodeReport stamps.
// DecodeReport accepts versions 1..ReportFormatVersion: version 2 added
// the scenario/region labels and the embedded SLO verdict, all optional.
const ReportFormatVersion = 2

// SLO is a per-run service-level gate. Counter limits of -1 disable that
// axis; MaxSpreadP99 <= 0 disables the spread axis. The chaos harness
// gates every scenario on zero protocol errors plus scenario-specific
// spread and missed-epoch ceilings.
type SLO struct {
	// MaxProtocolErrors caps protocol_errors (-1 = ungated).
	MaxProtocolErrors int64 `json:"max_protocol_errors"`
	// MaxMissedRekeys caps missed_rekeys (-1 = ungated).
	MaxMissedRekeys int64 `json:"max_missed_rekeys"`
	// MaxSpreadP99 caps rekey_spread.p99_seconds (<= 0 = ungated).
	MaxSpreadP99 float64 `json:"max_spread_p99_seconds,omitempty"`
}

// Check evaluates a report against the gate, returning one human-readable
// violation per breached limit (empty = the run met its SLO).
func (s SLO) Check(r *Report) []string {
	var v []string
	if s.MaxProtocolErrors >= 0 && r.ProtocolErrors > uint64(s.MaxProtocolErrors) {
		v = append(v, fmt.Sprintf("protocol_errors %d > %d", r.ProtocolErrors, s.MaxProtocolErrors))
	}
	if s.MaxMissedRekeys >= 0 && r.MissedRekeys > uint64(s.MaxMissedRekeys) {
		v = append(v, fmt.Sprintf("missed_rekeys %d > %d", r.MissedRekeys, s.MaxMissedRekeys))
	}
	if s.MaxSpreadP99 > 0 && r.RekeySpread.P99 > s.MaxSpreadP99 {
		v = append(v, fmt.Sprintf("rekey_spread p99 %.4fs > %.4fs", r.RekeySpread.P99, s.MaxSpreadP99))
	}
	return v
}

// SLOResult records the gate a run was evaluated against and the verdict,
// embedded in the report so a failing artifact is self-describing.
type SLOResult struct {
	SLO        SLO      `json:"slo"`
	Passed     bool     `json:"passed"`
	Violations []string `json:"violations,omitempty"`
}

// LatencySummary condenses one latency histogram for the report.
type LatencySummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_seconds"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
	Max   float64 `json:"max_seconds"`
}

// Report is the machine-readable outcome of one load/soak run — the
// SOAK_report.json artifact CI archives and gates on.
type Report struct {
	FormatVersion   int     `json:"format_version"`
	Addr            string  `json:"addr"`
	Members         int     `json:"members"`
	Groups          int     `json:"groups"`
	DurationSeconds float64 `json:"duration_seconds"`
	Seed            uint64  `json:"seed"`
	// Scenario and Region label the chaos scenario and WAN region this
	// fleet ran as (empty outside the chaos harness), so a matrix of
	// SOAK_report.json artifacts stays attributable after upload.
	Scenario string `json:"scenario,omitempty"`
	Region   string `json:"region,omitempty"`
	// FaultPlanHash pins the dst fault plan (if any) that shaped the
	// environment this soak ran under, so an anomaly here can be handed
	// straight to `dstrun -replay`.
	FaultPlanHash string `json:"fault_plan_hash,omitempty"`

	// ResumeFailures counts resume attempts lost to the transport (the
	// saved session is kept and retried); ResumeRejected those a server
	// refused (the slot joins afresh).
	Joins          uint64 `json:"joins"`
	JoinsDeferred  uint64 `json:"joins_deferred"`
	JoinErrors     uint64 `json:"join_errors"`
	Leaves         uint64 `json:"leaves"`
	Disconnects    uint64 `json:"disconnects"`
	Resumes        uint64 `json:"resumes"`
	ResumeFailures uint64 `json:"resume_failures"`
	ResumeRejected uint64 `json:"resume_rejected"`

	RekeysSeen   uint64 `json:"rekeys_seen"`
	FinalEpoch   uint64 `json:"final_epoch"`
	MissedRekeys uint64 `json:"missed_rekeys"`

	ProtocolErrors uint64 `json:"protocol_errors"`
	BadSignatures  uint64 `json:"bad_signatures"`
	Undecryptable  uint64 `json:"undecryptable"`

	PeakActive int `json:"peak_active"`

	JoinLatency LatencySummary `json:"join_latency"`
	RekeySpread LatencySummary `json:"rekey_spread"`

	// SLOResult is present when the run was gated (see SLO.Check).
	SLOResult *SLOResult `json:"slo_result,omitempty"`

	ErrorSamples []string `json:"error_samples,omitempty"`
}

// Gate evaluates the SLO, records the verdict in the report, and reports
// whether the run passed.
func (r *Report) Gate(s SLO) bool {
	violations := s.Check(r)
	r.SLOResult = &SLOResult{SLO: s, Passed: len(violations) == 0, Violations: violations}
	return r.SLOResult.Passed
}

// validate enforces the invariants both encode and decode rely on, so a
// corrupted or hand-edited report fails loudly instead of gating CI on
// garbage.
func (r *Report) validate() error {
	if r.FormatVersion < 1 || r.FormatVersion > ReportFormatVersion {
		return fmt.Errorf("loadgen: report format version %d, want 1..%d", r.FormatVersion, ReportFormatVersion)
	}
	if r.Members < 0 {
		return fmt.Errorf("loadgen: negative members %d", r.Members)
	}
	if r.Groups < 0 {
		return fmt.Errorf("loadgen: negative groups %d", r.Groups)
	}
	if r.PeakActive < 0 {
		return fmt.Errorf("loadgen: negative peak_active %d", r.PeakActive)
	}
	if !(r.DurationSeconds >= 0) || math.IsInf(r.DurationSeconds, 0) {
		return fmt.Errorf("loadgen: bad duration_seconds %v", r.DurationSeconds)
	}
	if r.ProtocolErrors < r.BadSignatures+r.Undecryptable {
		return fmt.Errorf("loadgen: protocol_errors %d below its components %d+%d",
			r.ProtocolErrors, r.BadSignatures, r.Undecryptable)
	}
	if len(r.ErrorSamples) > maxErrorSamples {
		return fmt.Errorf("loadgen: %d error samples exceeds cap %d", len(r.ErrorSamples), maxErrorSamples)
	}
	if res := r.SLOResult; res != nil {
		if res.Passed != (len(res.Violations) == 0) {
			return fmt.Errorf("loadgen: slo_result passed=%v with %d violations", res.Passed, len(res.Violations))
		}
	}
	for _, s := range []struct {
		name string
		ls   LatencySummary
	}{{"join_latency", r.JoinLatency}, {"rekey_spread", r.RekeySpread}} {
		for _, v := range []float64{s.ls.Mean, s.ls.P50, s.ls.P95, s.ls.P99, s.ls.Max} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("loadgen: %s has non-finite or negative quantile %v", s.name, v)
			}
		}
	}
	return nil
}

// EncodeReport serializes a report as indented JSON.
func EncodeReport(r *Report) ([]byte, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeReport parses and validates a report produced by EncodeReport.
// Unknown fields are rejected so schema drift is caught at the consumer.
func DecodeReport(b []byte) (*Report, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("loadgen: decoding report: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("loadgen: trailing data after report")
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
