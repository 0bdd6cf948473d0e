// Command loadgen soaks a running keyserverd with churning synthetic
// members and writes a machine-readable report of rekey delivery,
// admission deferrals, and protocol errors.
//
// Usage:
//
//	loadgen -server 127.0.0.1:7600 -members 200 -duration 30s -report SOAK_report.json
//
// The churn model is the paper's two-class membership mix (-alpha,
// -short, -long), time-compressed by -compress so hours of realistic
// churn replay within the run. With -fail-on-errors the exit status is
// nonzero when any protocol error was observed — the CI soak gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"groupkey/internal/dst"
	"groupkey/internal/loadgen"
	"groupkey/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	addr := fs.String("server", "127.0.0.1:7600", "key server address, or a comma-separated list of cluster node addresses")
	members := fs.Int("members", 100, "concurrent member slots to sustain")
	groups := fs.Int("groups", 1, "spread slots round-robin across hosted groups 0..N-1")
	duration := fs.Duration("duration", 30*time.Second, "how long to run")
	seed := fs.Uint64("seed", 1, "churn schedule seed")
	reportPath := fs.String("report", "SOAK_report.json", "report output path (- for stdout)")
	alpha := fs.Float64("alpha", 0.8, "fraction of short-lived members")
	shortMean := fs.Duration("short", 3*time.Minute, "mean stay of the short class (before compression)")
	longMean := fs.Duration("long", 3*time.Hour, "mean stay of the long class (before compression)")
	compress := fs.Float64("compress", 100, "time compression factor for stays")
	loss := fs.Float64("loss", -1, "loss rate reported at join (-1 = unknown)")
	udpAddr := fs.String("udp", "", "server UDP address; every session subscribes to the datagram rekey plane (empty = TCP only)")
	joinTimeout := fs.Duration("join-timeout", 30*time.Second, "how long to wait for admission")
	ramp := fs.Float64("ramp", 0, "stagger initial joins to this many per second (0 = all at once)")
	resume := fs.Bool("resume", false, "resume sessions after unexpected disconnects")
	minStay := fs.Duration("min-stay", 100*time.Millisecond, "floor on sampled stays")
	failOnErrors := fs.Bool("fail-on-errors", false, "exit nonzero if any protocol error was observed")
	faultPlan := fs.String("fault-plan", "", "dst fault plan or failure artifact (JSON) whose hash is recorded in the report for replay bookkeeping")
	scenario := fs.String("scenario", "", "chaos scenario name recorded in the report")
	region := fs.String("region", "", "WAN region name recorded in the report")
	addrMap := fs.String("addr-map", "", "redirect rewrites as comma-separated REAL=LOCAL pairs: cluster redirects naming REAL are re-dialed at LOCAL (this fleet's proxy front)")
	preflight := fs.Duration("preflight", 0, "verify every -server endpoint is reachable (and its proxy backend alive) within this timeout before starting; 0 = skip")
	sloSpreadP99 := fs.Float64("slo-spread-p99", 0, "SLO: fail if rekey delivery spread p99 exceeds this many seconds (0 = ungated)")
	sloMissed := fs.Int64("slo-missed", -1, "SLO: fail if missed rekeys exceed this count (-1 = ungated)")
	sloErrors := fs.Int64("slo-errors", -1, "SLO: fail if protocol errors exceed this count (-1 = ungated)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	planHash := ""
	if *faultPlan != "" {
		h, err := faultPlanHash(*faultPlan)
		if err != nil {
			return fmt.Errorf("-fault-plan: %w", err)
		}
		planHash = h
	}

	churn := workload.TwoClass{
		Alpha: *alpha,
		Short: workload.Exponential{M: shortMean.Seconds()},
		Long:  workload.Exponential{M: longMean.Seconds()},
	}.Compressed(*compress)

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	fmt.Printf("loadgen: soaking %s with %d members across %d groups for %v (seed %d, compress %.0fx)\n",
		*addr, *members, *groups, *duration, *seed, *compress)
	var addrs []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	rewrites, err := parseAddrMap(*addrMap)
	if err != nil {
		return fmt.Errorf("-addr-map: %w", err)
	}
	if *preflight > 0 {
		if err := loadgen.Preflight(addrs, *preflight); err != nil {
			return err
		}
		fmt.Printf("loadgen: preflight ok for %d endpoints\n", len(addrs))
	}
	r := loadgen.New(loadgen.Config{
		Addrs:       addrs,
		AddrMap:     rewrites,
		Scenario:    *scenario,
		Region:      *region,
		Members:     *members,
		Groups:      *groups,
		Duration:    *duration,
		Seed:        *seed,
		Churn:       churn,
		LossRate:    *loss,
		UDPAddr:     *udpAddr,
		JoinTimeout: *joinTimeout,
		RampPerSec:  *ramp,
		Resume:      *resume,
		MinStay:     *minStay,

		FaultPlanHash: planHash,
	})
	rep, err := r.Run(ctx)
	if err != nil {
		return err
	}

	sloGated := *sloSpreadP99 > 0 || *sloMissed >= 0 || *sloErrors >= 0
	sloPassed := true
	if sloGated {
		sloPassed = rep.Gate(loadgen.SLO{
			MaxProtocolErrors: *sloErrors,
			MaxMissedRekeys:   *sloMissed,
			MaxSpreadP99:      *sloSpreadP99,
		})
	}

	b, err := loadgen.EncodeReport(rep)
	if err != nil {
		return err
	}
	if *reportPath == "-" {
		os.Stdout.Write(b)
	} else {
		if err := os.WriteFile(*reportPath, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("loadgen: report written to %s\n", *reportPath)
	}

	fmt.Printf("loadgen: %d joins (%d deferred, %d errors), %d leaves, %d disconnects, %d resumes (%d failed, %d rejected)\n",
		rep.Joins, rep.JoinsDeferred, rep.JoinErrors, rep.Leaves, rep.Disconnects, rep.Resumes, rep.ResumeFailures, rep.ResumeRejected)
	fmt.Printf("loadgen: %d rekeys seen (final epoch %d, %d missed), join p95 %.1fms, spread p95 %.1fms\n",
		rep.RekeysSeen, rep.FinalEpoch, rep.MissedRekeys,
		rep.JoinLatency.P95*1e3, rep.RekeySpread.P95*1e3)
	if rep.ProtocolErrors > 0 {
		fmt.Printf("loadgen: %d PROTOCOL ERRORS (%d bad signatures, %d undecryptable)\n",
			rep.ProtocolErrors, rep.BadSignatures, rep.Undecryptable)
		for _, s := range rep.ErrorSamples {
			fmt.Printf("loadgen:   %s\n", s)
		}
		if *failOnErrors {
			return fmt.Errorf("%d protocol errors", rep.ProtocolErrors)
		}
	} else {
		fmt.Println("loadgen: zero protocol errors")
	}
	if sloGated && !sloPassed {
		for _, v := range rep.SLOResult.Violations {
			fmt.Printf("loadgen: SLO VIOLATION: %s\n", v)
		}
		return fmt.Errorf("%d SLO violations", len(rep.SLOResult.Violations))
	}
	return nil
}

// parseAddrMap parses comma-separated REAL=LOCAL redirect rewrites.
func parseAddrMap(spec string) (map[string]string, error) {
	if spec == "" {
		return nil, nil
	}
	m := make(map[string]string)
	for _, pair := range strings.Split(spec, ",") {
		real, local, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || real == "" || local == "" {
			return nil, fmt.Errorf("pair %q is not REAL=LOCAL", pair)
		}
		m[real] = local
	}
	return m, nil
}

// faultPlanHash canonicalizes the fault plan behind a -fault-plan file:
// either a raw dst plan or a dstrun failure artifact (whose embedded plan
// wins). The hash matches what dstrun prints, so a soak report and a
// simulation replay of the same plan agree on the identifier.
func faultPlanHash(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var art struct {
		Plan dst.Plan `json:"plan"`
	}
	if err := json.Unmarshal(b, &art); err == nil && art.Plan.Nodes > 0 {
		return art.Plan.Hash(), nil
	}
	var plan dst.Plan
	if err := json.Unmarshal(b, &plan); err != nil {
		return "", fmt.Errorf("decoding %s: %w", path, err)
	}
	if plan.Nodes == 0 {
		return "", fmt.Errorf("%s does not look like a dst plan or artifact", path)
	}
	return plan.Hash(), nil
}
