package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"cloudmon/internal/core"
	"cloudmon/internal/fleet"
	"cloudmon/internal/httpkit"
	"cloudmon/internal/loadgen"
	"cloudmon/internal/monitor"
	"cloudmon/internal/obs"
	"cloudmon/internal/openstack"
	"cloudmon/internal/openstack/cinder"
	"cloudmon/internal/osbinding"
	"cloudmon/internal/osclient"
	"cloudmon/internal/paper"
)

// instance is one monitor of a deployment.
type instance struct {
	id       string
	sys      *core.System
	bus      *fleet.Bus // nil outside a fleet
	audit    *obs.AuditLog
	auditDir string
}

// deployment is one round's system under test: a simulated cloud, one or
// more monitors built by core.Build, and — for fleet workloads — the
// fleet front over them.
//
// The benchmark assembles monitors with core.Build rather than
// loadgen.Deploy/DeployFleet because core.Options.HTTPClient is the only
// exported seam on the monitor → cloud path, and the benchmark must own
// that transport to charge the RTT and see each cloud call.
type deployment struct {
	cloud     *openstack.Cloud
	instances []*instance
	front     *fleet.Front // nil when the lone monitor is served directly
	tenants   []loadgen.Tenant
	target    loadgen.Target
}

// Seed users: one per Table I group, plus the monitor's service account.
var seedUsers = []openstack.SeedUser{
	{Name: "alice", Password: "pw", Group: paper.GroupProjAdministrator},
	{Name: "bob", Password: "pw", Group: paper.GroupServiceArchitect},
	{Name: "carol", Password: "pw", Group: paper.GroupBusinessAnalyst},
	{Name: "cm-svc", Password: "pw", Group: paper.GroupProjAdministrator},
}

var roleUsers = map[string]string{loadgen.RoleAdmin: "alice", loadgen.RoleMember: "bob", loadgen.RoleUser: "carol"}

const cloudURL = "http://cloud.internal"

// deploy builds the workload's system with its audit trails under dir.
func deploy(w workload, dir string, rec *recorder) (*deployment, error) {
	quota := cinder.QuotaSet{Volumes: 1000000, Gigabytes: 1 << 30}
	cloud := openstack.New(openstack.Config{})
	seed := cloud.ApplySeed(openstack.Seed{
		ProjectName: "bench", Quota: quota, GroupRoles: paper.GroupRole(), Users: seedUsers,
	})
	d := &deployment{cloud: cloud}

	cloudHTTP := httpkit.HandlerClient(cloud)
	roles := map[string]string{}
	for i := 0; i < w.Tenants; i++ {
		proj := cloud.Identity.CreateProject(fmt.Sprintf("tenant-%02d", i))
		cloud.Volumes.SetQuota(proj.ID, quota)
		for group, role := range paper.GroupRole() {
			cloud.Identity.AssignRole(proj.ID, group, role)
		}
		tokens := map[string]string{loadgen.RoleAnonymous: ""}
		for role, user := range roleUsers {
			auth := osclient.Client{BaseURL: cloudURL, HTTPClient: cloudHTTP}
			tok, err := auth.Authenticate(user, "pw", proj.ID)
			if err != nil {
				return nil, fmt.Errorf("authenticate %s: %w", user, err)
			}
			tokens[role] = tok
			roles[tok] = role
		}
		d.tenants = append(d.tenants, loadgen.Tenant{ProjectID: proj.ID, Tokens: tokens})
	}

	n := max(w.Instances, 1)
	members := make([]*fleet.Member, 0, n)
	byID := map[string]*fleet.Member{}
	for i := 0; i < n; i++ {
		in := &instance{id: fmt.Sprintf("m-%02d", i), auditDir: filepath.Join(dir, fmt.Sprintf("m-%02d", i))}
		if err := os.MkdirAll(in.auditDir, 0o755); err != nil {
			d.close()
			return nil, err
		}
		audit, err := obs.OpenAuditLog(in.auditDir, 0)
		if err != nil {
			d.close()
			return nil, err
		}
		in.audit = audit
		opts := core.Options{
			Model:          paper.CinderModel(),
			CloudURL:       cloudURL,
			ServiceAccount: osbinding.ServiceAccount{User: "cm-svc", Password: "pw", ProjectID: seed.ProjectID},
			HTTPClient: &http.Client{Transport: &cloudTransport{
				rec: rec, next: httpkit.HandlerRoundTripper(cloud), rtt: w.RTT,
			}},
			Audit: audit,
		}
		if w.Instances > 0 {
			in.bus = &fleet.Bus{
				Self: in.id,
				Ring: func() *fleet.Ring {
					if d.front == nil {
						return nil
					}
					return d.front.Ring()
				},
				Member: func(id string) *fleet.Member { return byID[id] },
			}
			opts.InstanceID = in.id
			opts.OnInvalidate = in.bus.OnInvalidate
		}
		sys, err := core.Build(opts)
		if err != nil {
			audit.Close()
			d.close()
			return nil, err
		}
		in.sys = sys
		d.instances = append(d.instances, in)

		// Bus bumps travel the real wire format to the instance's
		// invalidate endpoint, as between processes.
		inspect := http.NewServeMux()
		inspect.Handle(fleet.InvalidatePath, fleet.InvalidateHandler(sys.Monitor))
		busHTTP, busBase := httpkit.HandlerClient(inspect), "http://"+in.id+".internal"
		reg := sys.Metrics
		m := &fleet.Member{
			ID:         in.id,
			Proxy:      rec.spanHandler(layerMonitor, sys.Monitor),
			Metrics:    func() (string, error) { return reg.Render(), nil },
			Invalidate: func(p string) error { return fleet.PostInvalidate(busHTTP, busBase, p) },
		}
		members = append(members, m)
		byID[m.ID] = m
	}

	entry := members[0].Proxy
	if w.Instances > 0 {
		front, err := fleet.NewFront(members)
		if err != nil {
			d.close()
			return nil, err
		}
		d.front = front
		entry = rec.spanHandler(layerFront, front)
	}
	d.target = loadgen.Target{
		BaseURL: "http://monitor.internal",
		HTTPClient: &http.Client{Transport: &clientTransport{
			rec: rec, next: httpkit.HandlerRoundTripper(entry), roles: roles, cloud: cloud,
		}},
		Tenants: d.tenants,
	}
	return d, nil
}

// outcomes sums the verdict tallies of all instances.
func (d *deployment) outcomes() map[monitor.Outcome]int {
	out := map[monitor.Outcome]int{}
	for _, in := range d.instances {
		for k, v := range in.sys.Monitor.Outcomes() {
			out[k] += v
		}
	}
	return out
}

// close drains the monitors and the bus and closes the audit trails.
func (d *deployment) close() error {
	var first error
	for _, in := range d.instances {
		if in.sys != nil {
			in.sys.Monitor.Close()
		}
		if in.bus != nil {
			in.bus.Wait()
		}
		if in.audit != nil {
			if err := in.audit.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
