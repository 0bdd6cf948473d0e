package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"groupkey/internal/dst"
	"groupkey/internal/loadgen"
	"groupkey/internal/wanproxy"
	"groupkey/internal/workload"
)

// orchestrator runs one scenario: real keyserverd processes, wanproxy
// links per (region, node), real loadgen fleets per region, a fault
// timeline, and the SLO gate over the collected SOAK reports.
type orchestrator struct {
	sc         *Scenario
	keyserverd string
	loadgen    string
	dir        string // per-scenario artifact directory
	logf       func(format string, args ...any)

	nodeAddrs    []string // real client addrs, node order
	replAddrs    []string
	metricsAddrs []string // each node's -metrics endpoint
	udpAddr      string   // real UDP addr (standalone UDP scenarios)
	peersSpec    string

	mu    sync.Mutex
	nodes []*proc
	// flash tracks burst fleets spawned by flashcrowd events.
	flash []*proc
	// links[region][node] is the shaped path from one region to one node.
	links map[string][]*wanproxy.Link
}

// proc is one managed child process, restartable in place.
type proc struct {
	name string
	bin  string
	args []string
	log  *os.File

	mu   sync.Mutex
	cmd  *exec.Cmd
	done chan error
}

func (p *proc) start() error {
	cmd := exec.Command(p.bin, p.args...)
	cmd.Stdout = p.log
	cmd.Stderr = p.log
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", p.name, err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	p.mu.Lock()
	p.cmd = cmd
	p.done = done
	p.mu.Unlock()
	return nil
}

func (p *proc) kill() {
	p.mu.Lock()
	cmd, done := p.cmd, p.done
	p.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		cmd.Process.Kill() // SIGKILL: no goodbye, exactly like a crash
		<-done
	}
}

// wait blocks until the current incarnation exits.
func (p *proc) wait() error {
	p.mu.Lock()
	done := p.done
	p.mu.Unlock()
	if done == nil {
		return nil
	}
	return <-done
}

// Summary is the scenario's machine-readable verdict, written alongside
// the per-region SOAK reports.
type Summary struct {
	Scenario      string          `json:"scenario"`
	Passed        bool            `json:"passed"`
	FaultPlanHash string          `json:"fault_plan_hash"`
	Regions       []RegionVerdict `json:"regions"`
	// ServerCounters holds, per keyserverd process, the serverCounters
	// it reported at the end of the run. They are recorded, not gated;
	// a restarted node's counters start from its restart.
	ServerCounters map[string]map[string]float64 `json:"server_counters,omitempty"`
}

// serverCounters are the groupkey_* series chaos_summary.json records from
// each server: the epoch count, datagram traffic and repair, TCP pulls and
// rejected registrations, and a cluster node's lease transitions and
// fencing rejections. A cluster node exports only the last two.
var serverCounters = []string{
	"groupkey_rekeys_total",
	"groupkey_udp_packets_sent_total",
	"groupkey_udp_parity_sent_total",
	"groupkey_udp_nacks_total",
	"groupkey_udp_repair_rounds_total",
	"groupkey_rekey_repair_pulls_total",
	"groupkey_rejected_registrations_total",
	"groupkey_lease_transitions_total",
	"groupkey_fencing_rejections_total",
}

// RegionVerdict is one region fleet's gated outcome.
type RegionVerdict struct {
	Region         string   `json:"region"`
	Report         string   `json:"report"`
	Passed         bool     `json:"passed"`
	Violations     []string `json:"violations,omitempty"`
	Joins          uint64   `json:"joins"`
	RekeysSeen     uint64   `json:"rekeys_seen"`
	MissedRekeys   uint64   `json:"missed_rekeys"`
	ProtocolErrors uint64   `json:"protocol_errors"`
	SpreadP99      float64  `json:"spread_p99_seconds"`
}

// run executes the scenario end to end and returns its summary. It
// refuses a non-empty scenario directory: keyserverd would recover the
// state an earlier run left there, and the two runs would not be
// independent.
func (o *orchestrator) run() (*Summary, error) {
	if entries, err := os.ReadDir(o.dir); err == nil && len(entries) > 0 {
		return nil, fmt.Errorf("scenario directory %s is not empty: remove it to start a fresh run", o.dir)
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}

	// The canonical fault plan is written first so every fleet records
	// its hash, and `dstrun -replay` can re-execute the same faults
	// under the deterministic simulator.
	plan := o.sc.FaultPlan()
	art := &dst.Artifact{Plan: plan, PlanHash: plan.Hash(), Profile: o.sc.faultProfile()}
	planPath := filepath.Join(o.dir, "fault_plan.json")
	if err := art.WriteFile(planPath); err != nil {
		return nil, fmt.Errorf("writing fault plan: %w", err)
	}
	o.logf("scenario %s: fault plan %s (%d ops) -> %s", o.sc.Name, plan.Hash()[:12], len(plan.Ops), planPath)

	// Archive the flash-crowd churn trace when the timeline includes one,
	// so the exact synthetic workload is reproducible offline.
	for _, ev := range o.sc.Events {
		if ev.Kind != "flashcrowd" {
			continue
		}
		if err := o.writeFlashTrace(ev); err != nil {
			return nil, err
		}
		break
	}

	if err := o.startServers(); err != nil {
		o.teardown()
		return nil, err
	}
	if err := o.startLinks(); err != nil {
		o.teardown()
		return nil, err
	}
	defer o.teardown()

	fleetStart := time.Now()
	fleets, err := o.startFleets(planPath)
	if err != nil {
		return nil, err
	}
	stopEvents := o.scheduleEvents(fleetStart)
	defer stopEvents()

	// Fleets bound their own runtime via -duration; the grace covers
	// ramp, preflight, and final report writing.
	deadline := o.sc.Duration.D() + 90*time.Second
	fleetErrs := map[string]error{}
	for region, p := range fleets {
		errCh := make(chan error, 1)
		go func(p *proc) { errCh <- p.wait() }(p)
		select {
		case err := <-errCh:
			fleetErrs[region] = err
		case <-time.After(deadline):
			p.kill()
			fleetErrs[region] = fmt.Errorf("fleet did not finish within %v", deadline)
		}
	}

	return o.gate(fleetErrs, o.scrapeCounters())
}

// scrapeCounters reads serverCounters from the aggregate series of every
// node that answers on its metrics endpoint; a node that is down is left
// out.
func (o *orchestrator) scrapeCounters() map[string]map[string]float64 {
	client := &http.Client{Timeout: 5 * time.Second}
	out := make(map[string]map[string]float64)
	for i, p := range o.nodes {
		resp, err := client.Get("http://" + o.metricsAddrs[i] + "/metrics.json")
		if err != nil {
			o.logf("scraping %s: %v", p.name, err)
			continue
		}
		var series []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Value  *float64          `json:"value"`
		}
		err = json.NewDecoder(resp.Body).Decode(&series)
		resp.Body.Close()
		if err != nil {
			o.logf("scraping %s: %v", p.name, err)
			continue
		}
		counters := make(map[string]float64)
		for _, s := range series {
			if len(s.Labels) == 0 && s.Value != nil && slices.Contains(serverCounters, s.Name) {
				counters[s.Name] = *s.Value
			}
		}
		out[p.name] = counters
	}
	return out
}

// writeFlashTrace synthesizes and archives the flash-crowd membership
// trace matching a flashcrowd event.
func (o *orchestrator) writeFlashTrace(ev Event) error {
	members := ev.Members
	if members <= 0 {
		members = 100
	}
	tr, err := workload.SynthFlashCrowd(workload.FlashCrowdConfig{
		Seed:     o.sc.Seed,
		Baseline: members,
		Horizon:  o.sc.Duration.D().Seconds(),
		Crowd: workload.FlashCrowd{
			Start:  ev.At.D().Seconds(),
			RampUp: 2,
			Hold:   ev.For.D().Seconds(),
			Decay:  4,
			Peak:   8,
		},
	})
	if err != nil {
		return fmt.Errorf("synthesizing flash crowd: %w", err)
	}
	path := filepath.Join(o.dir, "flashcrowd.trace")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := workload.WriteTrace(f, tr); err != nil {
		return fmt.Errorf("writing flash crowd trace: %w", err)
	}
	o.logf("scenario %s: flash crowd trace (%d members, %d events) -> %s",
		o.sc.Name, len(tr.Members), len(tr.Events), path)
	return nil
}

// startServers launches the keyserverd topology: a standalone daemon, or
// a cluster whose node 0 starts first so it owns every shard (making
// "kill the primary" deterministic).
func (o *orchestrator) startServers() error {
	n := o.sc.Nodes
	o.nodeAddrs = make([]string, n)
	o.replAddrs = make([]string, n)
	o.metricsAddrs = make([]string, n)
	for i := range o.nodeAddrs {
		addr, err := freePort("tcp")
		if err != nil {
			return err
		}
		o.nodeAddrs[i] = addr
		if o.metricsAddrs[i], err = freePort("tcp"); err != nil {
			return err
		}
		if n > 1 {
			if o.replAddrs[i], err = freePort("tcp"); err != nil {
				return err
			}
		}
	}
	if o.sc.UDP {
		addr, err := freePort("udp")
		if err != nil {
			return err
		}
		o.udpAddr = addr
	}

	if n == 1 {
		args := []string{
			"-listen", o.nodeAddrs[0],
			"-scheme", o.sc.Scheme,
			"-period", o.sc.Period.D().String(),
			"-state-dir", filepath.Join(o.dir, "state-a"),
			"-fsync", "never", // chaos gates on protocol correctness, not durability latency
			"-groups", fmt.Sprint(o.sc.Groups),
			"-metrics", o.metricsAddrs[0],
		}
		if o.sc.UDP {
			args = append(args, "-udp", o.udpAddr)
		}
		p, err := o.spawn("keyserverd-a", o.keyserverd, args)
		if err != nil {
			return err
		}
		o.nodes = []*proc{p}
		return waitTCP(o.nodeAddrs[0], 15*time.Second)
	}

	var peers []string
	for i := 0; i < n; i++ {
		peers = append(peers, fmt.Sprintf("%s=%s=%s", nodeID(i), o.nodeAddrs[i], o.replAddrs[i]))
	}
	o.peersSpec = strings.Join(peers, ",")
	leaseDir := filepath.Join(o.dir, "leases")
	if err := os.MkdirAll(leaseDir, 0o755); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		args := []string{
			"-cluster-node", nodeID(i),
			"-cluster-peers", o.peersSpec,
			"-cluster-dir", leaseDir,
			"-state-dir", filepath.Join(o.dir, "state-"+nodeID(i)),
			"-groups", fmt.Sprint(o.sc.Groups),
			"-scheme", o.sc.Scheme,
			"-period", o.sc.Period.D().String(),
			"-lease-ttl", "1500ms",
			"-fsync", "never",
			"-metrics", o.metricsAddrs[i],
		}
		p, err := o.spawn("keyserverd-"+nodeID(i), o.keyserverd, args)
		if err != nil {
			return err
		}
		o.nodes = append(o.nodes, p)
		if err := waitTCP(o.nodeAddrs[i], 15*time.Second); err != nil {
			return err
		}
		if i == 0 {
			// Give node 0 a lease-acquisition head start: it becomes
			// primary for every shard, so kill-primary has a fixed target.
			time.Sleep(2 * time.Second)
		}
	}
	return nil
}

// startLinks builds the WAN topology: one shaped link per (region, node)
// pair, plus the UDP plane on region→node0 when enabled.
func (o *orchestrator) startLinks() error {
	o.links = make(map[string][]*wanproxy.Link)
	for ri, region := range o.sc.Regions {
		prof, _ := wanproxy.Named(region.Profile)
		for ni, real := range o.nodeAddrs {
			cfg := wanproxy.Config{
				Name:      fmt.Sprintf("%s/%s", region.Name, nodeID(ni)),
				ListenTCP: "127.0.0.1:0",
				TargetTCP: real,
				Profile:   prof,
				Seed:      o.sc.Seed + uint64(ri)*131 + uint64(ni),
				Logf:      o.logf,
			}
			if o.sc.UDP && ni == 0 {
				cfg.ListenUDP = "127.0.0.1:0"
				cfg.TargetUDP = o.udpAddr
			}
			link, err := wanproxy.Listen(cfg)
			if err != nil {
				return err
			}
			o.mu.Lock()
			o.links[region.Name] = append(o.links[region.Name], link)
			o.mu.Unlock()
		}
	}
	return nil
}

// fleetArgs assembles one region fleet's loadgen invocation. label is the
// report's region tag (the flash fleet reports as "<region>-flash").
func (o *orchestrator) fleetArgs(region Region, label string, members int, duration time.Duration, reportPath, planPath string, flash bool) []string {
	links := o.links[region.Name]
	fronts := make([]string, len(links))
	var addrMap []string
	for i, link := range links {
		fronts[i] = link.TCPAddr().String()
		addrMap = append(addrMap, o.nodeAddrs[i]+"="+fronts[i])
	}
	args := []string{
		"-server", strings.Join(fronts, ","),
		"-members", fmt.Sprint(members),
		"-groups", fmt.Sprint(o.sc.Groups),
		"-duration", duration.String(),
		"-seed", fmt.Sprint(o.sc.Seed),
		"-compress", fmt.Sprint(o.sc.Compress),
		"-report", reportPath,
		"-scenario", o.sc.Name,
		"-region", label,
		"-resume",
		"-preflight", "10s",
		"-fault-plan", planPath,
	}
	if o.sc.Nodes > 1 {
		args = append(args, "-addr-map", strings.Join(addrMap, ","))
	}
	if o.sc.UDP {
		args = append(args, "-udp", links[0].UDPAddr().String())
	}
	if flash {
		// A crowd joins fast and mostly leaves fast.
		args = append(args, "-ramp", fmt.Sprint(members), "-short", "30s", "-alpha", "0.95")
	} else if members > 50 {
		args = append(args, "-ramp", fmt.Sprint(members/2))
	}
	return args
}

// startFleets launches one loadgen process per region.
func (o *orchestrator) startFleets(planPath string) (map[string]*proc, error) {
	fleets := make(map[string]*proc)
	for _, region := range o.sc.Regions {
		reportPath := filepath.Join(o.dir, "SOAK_report_"+region.Name+".json")
		args := o.fleetArgs(region, region.Name, region.Members, o.sc.Duration.D(), reportPath, planPath, false)
		p, err := o.spawn("loadgen-"+region.Name, o.loadgen, args)
		if err != nil {
			return nil, err
		}
		fleets[region.Name] = p
	}
	return fleets, nil
}

// scheduleEvents arms the fault timeline; the returned func cancels
// pending events.
func (o *orchestrator) scheduleEvents(start time.Time) func() {
	var timers []*time.Timer
	for _, ev := range o.sc.Events {
		ev := ev
		delay := time.Until(start.Add(ev.At.D()))
		if delay < 0 {
			delay = 0
		}
		timers = append(timers, time.AfterFunc(delay, func() { o.fire(ev) }))
	}
	return func() {
		for _, t := range timers {
			t.Stop()
		}
	}
}

// fire executes one timeline event.
func (o *orchestrator) fire(ev Event) {
	switch ev.Kind {
	case "kill-primary":
		o.logf("event: SIGKILL primary %s", o.nodes[0].name)
		o.nodes[0].kill()
		restart := ev.RestartAfter.D()
		if restart <= 0 {
			restart = 2 * time.Second
		}
		time.AfterFunc(restart, func() {
			o.logf("event: restarting %s", o.nodes[0].name)
			if err := o.nodes[0].start(); err != nil {
				o.logf("event: restart failed: %v", err)
			}
		})
	case "flap":
		d := ev.For.D()
		if d <= 0 {
			d = time.Second
		}
		o.logf("event: flapping region %s for %v", ev.Region, d)
		for _, link := range o.links[ev.Region] {
			link.Flap(d)
		}
	case "squeeze":
		d := ev.For.D()
		if d <= 0 {
			d = time.Second
		}
		o.logf("event: squeezing region %s to %d B/s for %v", ev.Region, ev.Rate, d)
		for _, link := range o.links[ev.Region] {
			link := link
			orig := link.Profile().Rate
			link.SetRate(ev.Rate)
			time.AfterFunc(d, func() { link.SetRate(orig) })
		}
	case "flashcrowd":
		members := ev.Members
		if members <= 0 {
			members = 100
		}
		d := ev.For.D()
		if d <= 0 {
			d = 10 * time.Second
		}
		o.logf("event: flash crowd of %d joining region %s for %v", members, ev.Region, d)
		var region Region
		for _, r := range o.sc.Regions {
			if r.Name == ev.Region {
				region = r
			}
		}
		reportPath := filepath.Join(o.dir, "SOAK_report_"+region.Name+"-flash.json")
		args := o.fleetArgs(region, region.Name+"-flash", members, d, reportPath, filepath.Join(o.dir, "fault_plan.json"), true)
		p, err := o.spawn("loadgen-"+region.Name+"-flash", o.loadgen, args)
		if err != nil {
			o.logf("event: flash crowd failed to start: %v", err)
			return
		}
		o.mu.Lock()
		o.flash = append(o.flash, p)
		o.mu.Unlock()
	}
}

// gate decodes every region report, applies the scenario SLO, rewrites
// the reports with their embedded verdicts, and assembles the summary
// with the servers' counters.
func (o *orchestrator) gate(fleetErrs map[string]error, counters map[string]map[string]float64) (*Summary, error) {
	slo := loadgen.SLO{
		MaxProtocolErrors: 0, // always: chaos may be slow, never wrong
		MaxMissedRekeys:   o.sc.SLO.MaxMissed,
		MaxSpreadP99:      o.sc.SLO.MaxSpreadP99,
	}
	plan := o.sc.FaultPlan()
	sum := &Summary{Scenario: o.sc.Name, Passed: true, FaultPlanHash: plan.Hash(), ServerCounters: counters}
	regions := append([]string(nil), regionNames(o.sc)...)
	sort.Strings(regions)
	for _, name := range regions {
		reportPath := filepath.Join(o.dir, "SOAK_report_"+name+".json")
		verdict := RegionVerdict{Region: name, Report: reportPath}
		b, err := os.ReadFile(reportPath)
		if err != nil {
			verdict.Violations = append(verdict.Violations, fmt.Sprintf("no report: %v", err))
		} else if rep, err := loadgen.DecodeReport(b); err != nil {
			verdict.Violations = append(verdict.Violations, fmt.Sprintf("bad report: %v", err))
		} else {
			verdict.Joins = rep.Joins
			verdict.RekeysSeen = rep.RekeysSeen
			verdict.MissedRekeys = rep.MissedRekeys
			verdict.ProtocolErrors = rep.ProtocolErrors
			verdict.SpreadP99 = rep.RekeySpread.P99
			rep.Gate(slo)
			verdict.Violations = append(verdict.Violations, rep.SLOResult.Violations...)
			if rep.Joins == 0 || rep.RekeysSeen == 0 {
				verdict.Violations = append(verdict.Violations,
					fmt.Sprintf("no signal: joins=%d rekeys_seen=%d", rep.Joins, rep.RekeysSeen))
			}
			if rep.FaultPlanHash != sum.FaultPlanHash {
				verdict.Violations = append(verdict.Violations,
					fmt.Sprintf("fault plan hash mismatch: report %.12s vs scenario %.12s", rep.FaultPlanHash, sum.FaultPlanHash))
			}
			// Rewrite the report with its embedded verdict so the uploaded
			// artifact is self-describing.
			if enc, err := loadgen.EncodeReport(rep); err == nil {
				os.WriteFile(reportPath, enc, 0o644)
			}
		}
		if err := fleetErrs[name]; err != nil {
			verdict.Violations = append(verdict.Violations, fmt.Sprintf("fleet exit: %v", err))
		}
		verdict.Passed = len(verdict.Violations) == 0
		sum.Passed = sum.Passed && verdict.Passed
		sum.Regions = append(sum.Regions, verdict)
	}

	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(o.dir, "chaos_summary.json"), append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	return sum, nil
}

// spawn starts a logged child process.
func (o *orchestrator) spawn(name, bin string, args []string) (*proc, error) {
	logF, err := os.Create(filepath.Join(o.dir, name+".log"))
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, bin: bin, args: args, log: logF}
	o.logf("starting %s: %s %s", name, bin, strings.Join(args, " "))
	if err := p.start(); err != nil {
		logF.Close()
		return nil, err
	}
	return p, nil
}

// teardown stops servers and links; fleets are reaped by run.
func (o *orchestrator) teardown() {
	o.mu.Lock()
	flash := o.flash
	o.mu.Unlock()
	for _, p := range flash {
		p.wait()
		p.log.Close()
	}
	for _, p := range o.nodes {
		p.kill()
		p.log.Close()
	}
	o.mu.Lock()
	links := o.links
	o.links = nil
	o.mu.Unlock()
	for _, ls := range links {
		for _, l := range ls {
			l.Close()
		}
	}
}

func regionNames(sc *Scenario) []string {
	var names []string
	for _, r := range sc.Regions {
		names = append(names, r.Name)
	}
	for _, ev := range sc.Events {
		if ev.Kind == "flashcrowd" {
			names = append(names, ev.Region+"-flash")
		}
	}
	return names
}

func nodeID(i int) string { return string(rune('a' + i)) }

// freePort reserves an ephemeral 127.0.0.1 port and releases it for the
// child process to claim.
func freePort(network string) (string, error) {
	if network == "udp" {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		addr := pc.LocalAddr().String()
		pc.Close()
		return addr, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// waitTCP polls until addr accepts a connection.
func waitTCP(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, 500*time.Millisecond)
		if err == nil {
			conn.Close()
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("server at %s not accepting connections within %v", addr, timeout)
}
