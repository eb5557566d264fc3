package main

import (
	"crypto/ed25519"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"cloudmon/internal/evidence"
	"cloudmon/internal/monitor"
	"cloudmon/internal/mutation"
	"cloudmon/internal/obs"
)

// checkRound is the correctness gate for one round: every response was
// the right one for the honest cloud, each request got exactly one
// verdict, the verdict tallies, /metrics and the audit trail agree, the
// trail verifies, and it packs and replays with no divergence. It returns
// the number of replayed records and the time the pack and replay took.
func checkRound(w workload, d *deployment, rec *recorder) (int, time.Duration, error) {
	rec.mu.Lock()
	wrong, why := rec.wrong, rec.wrongWhy
	rec.mu.Unlock()
	if wrong > 0 {
		return 0, 0, fmt.Errorf("%d wrong responses, e.g. %s", wrong, strings.Join(why, "; "))
	}
	total := 0
	for _, n := range d.outcomes() {
		total += n
	}
	if int64(total) != rec.issued.Load() {
		return 0, 0, fmt.Errorf("%d verdicts for %d requests", total, rec.issued.Load())
	}
	for _, in := range d.instances {
		if err := checkTallies(in); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", in.id, err)
		}
	}
	start := time.Now()
	n, err := packAndReplay(w, d)
	return n, time.Since(start), err
}

// checkTallies holds one instance's three views of its verdicts to each
// other: the monitor's counters, its /metrics exposition and its audit
// trail, and verifies the trail's chain on disk.
func checkTallies(in *instance) error {
	outcomes := in.sys.Monitor.Outcomes()
	samples, err := obs.ParseText([]byte(in.sys.Metrics.Render()))
	if err != nil {
		return fmt.Errorf("parse /metrics: %w", err)
	}
	scraped := obs.CounterByLabel(samples, "cloudmon_verdicts_total", "outcome")
	audit := in.audit.Counts()
	for i := monitor.OK; i <= monitor.Unverified; i++ {
		name := i.String()
		if int(scraped[name]) != outcomes[i] {
			return fmt.Errorf("/metrics has %s=%.0f, the monitor counted %d", name, scraped[name], outcomes[i])
		}
		if i != monitor.OK && int(audit[name]) != outcomes[i] {
			return fmt.Errorf("%d %s verdicts but %d audit records", outcomes[i], name, audit[name])
		}
	}
	if err := in.audit.Sync(); err != nil {
		return fmt.Errorf("sync audit trail: %w", err)
	}
	res, err := obs.VerifyAuditDir(in.auditDir)
	if err != nil {
		return fmt.Errorf("verify audit trail: %w", err)
	}
	if !res.OK() {
		return fmt.Errorf("audit trail: %s", strings.Join(res.Problems, "; "))
	}
	return nil
}

// packAndReplay packs every instance's trail into a signed evidence pack,
// verifies the pack and re-decides each packed verdict; a fleet's merged
// trail is replayed as well. It returns the number of records replayed.
func packAndReplay(w workload, d *deployment) (int, error) {
	_, priv, err := evidence.GenerateKey(nil)
	if err != nil {
		return 0, err
	}
	replayer, err := monitor.NewReplayer(d.instances[0].sys.Contracts)
	if err != nil {
		return 0, fmt.Errorf("build replayer: %w", err)
	}
	replayed := 0
	var merged []obs.AuditRecord
	for _, in := range d.instances {
		var records uint64
		for _, n := range in.audit.Counts() {
			records += n
		}
		if records == 0 {
			// Only non-OK verdicts are audited; an empty trail has no
			// segment to pack.
			continue
		}
		path := filepath.Join(filepath.Dir(in.auditDir), "pack-"+in.id)
		if _, err := evidence.BuildPack(in.auditDir, path, evidence.PackOptions{
			Key: priv, Scenario: w.Name, SetDigest: in.sys.Contracts.Digest(), Tool: "perfbench",
		}); err != nil {
			return 0, fmt.Errorf("%s: build evidence pack: %w", in.id, err)
		}
		p, err := evidence.OpenPack(path)
		if err != nil {
			return 0, fmt.Errorf("%s: open evidence pack: %w", in.id, err)
		}
		rep, err := p.Verify(priv.Public().(ed25519.PublicKey))
		if err == nil && !rep.PackOK() {
			err = fmt.Errorf("envelope: %s", strings.Join(rep.Problems, "; "))
		}
		var recs *obs.ReadResult
		if err == nil {
			recs, err = p.Records()
		}
		p.Close()
		if err != nil {
			return 0, fmt.Errorf("%s: evidence pack: %w", in.id, err)
		}
		if sum := replayer.ReplayAll(recs.Records); !sum.OK() {
			return 0, fmt.Errorf("%s: replay diverged on %d of %d verdicts", in.id, sum.Diverged, sum.Total)
		}
		replayed += len(recs.Records)
		merged = append(merged, recs.Records...)
	}
	if len(d.instances) > 1 {
		if sum := replayer.ReplayAll(merged); !sum.OK() {
			return 0, fmt.Errorf("merged trail replay diverged on %d of %d verdicts", sum.Diverged, sum.Total)
		}
		replayed += len(merged)
	}
	return replayed, nil
}

// checkMutants runs the paper's mutation campaign: the clean cloud must
// draw no violation and each of the paper's authorization mutants must be
// killed.
func checkMutants() error {
	mutants := mutation.PaperMutants()
	rep, err := mutation.RunCampaign(mutants)
	if err != nil {
		return fmt.Errorf("mutation campaign: %w", err)
	}
	if rep.BaselineViolations != 0 {
		return fmt.Errorf("mutation campaign: %d violations on the clean cloud", rep.BaselineViolations)
	}
	if rep.Killed() != len(mutants) {
		return fmt.Errorf("mutation campaign: %d of %d paper mutants killed", rep.Killed(), len(mutants))
	}
	return nil
}
