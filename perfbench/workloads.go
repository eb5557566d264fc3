package main

import (
	"fmt"
	"time"

	"cloudmon/internal/loadgen"
)

// workload is one traffic mix the benchmark drives. A run is a sequence of
// rounds; every round deploys afresh, prepopulates Tenants × Prepopulate
// volumes and then issues exactly Budget requests, so each round starts
// from the same working set and does the same work however fast the code
// under test is.
type workload struct {
	Name string
	Mix  []loadgen.OpSpec
	// Tenants is the number of projects; Instances > 0 puts that many
	// monitors behind a fleet front, 0 serves the lone monitor directly.
	Tenants     int
	Instances   int
	Prepopulate int
	// RTT is the simulated round trip charged to every monitor → cloud
	// request.
	RTT time.Duration
	// Budget is the number of requests in one round's timed window.
	Budget int
}

// clients is the closed-loop client count of every workload: one per core
// of the 2-core machine the figures in README.md were taken on.
const clients = 2

var workloads = []workload{
	{
		// One hot project at 1 ms RTT: sequential state-fetch round trips
		// set latency, and two writers on one project raise false alarms.
		Name: "hot-project-rtt1ms",
		Mix: []loadgen.OpSpec{
			{Op: loadgen.OpGetVolume, Role: loadgen.RoleAdmin, Weight: 20},
			{Op: loadgen.OpGetVolume, Role: loadgen.RoleMember, Weight: 20},
			{Op: loadgen.OpGetVolume, Role: loadgen.RoleUser, Weight: 10},
			{Op: loadgen.OpGetVolume, Role: loadgen.RoleAnonymous, Weight: 2},
			{Op: loadgen.OpCreateVolume, Role: loadgen.RoleAdmin, Weight: 8},
			{Op: loadgen.OpCreateVolume, Role: loadgen.RoleMember, Weight: 6},
			{Op: loadgen.OpUpdateVolume, Role: loadgen.RoleMember, Weight: 6},
			// Permitted deletes weigh as much as permitted creates, so
			// the project neither grows nor drains within a round.
			{Op: loadgen.OpDeleteVolume, Role: loadgen.RoleAdmin, Weight: 14},
			{Op: loadgen.OpDeleteVolume, Role: loadgen.RoleUser, Weight: 2},
		},
		Tenants:     1,
		Prepopulate: 64,
		RTT:         time.Millisecond,
		Budget:      1000,
	},
	{
		// One 256-volume project in process: CPU-bound on listing,
		// encoding and decoding the volume collection.
		Name: "large-project-inproc",
		Mix: []loadgen.OpSpec{
			{Op: loadgen.OpGetVolume, Role: loadgen.RoleAdmin, Weight: 30},
			{Op: loadgen.OpGetVolume, Role: loadgen.RoleMember, Weight: 30},
			{Op: loadgen.OpGetVolume, Role: loadgen.RoleUser, Weight: 30},
			{Op: loadgen.OpCreateVolume, Role: loadgen.RoleAdmin, Weight: 2},
			{Op: loadgen.OpDeleteVolume, Role: loadgen.RoleAdmin, Weight: 2},
		},
		Tenants:     1,
		Prepopulate: 256,
		Budget:      3000,
	},
	{
		// Writes over 32 small tenants through a 2-instance fleet front
		// at 1 ms RTT: near-zero contention, small working set.
		Name: "tenants-write-fleet",
		Mix: []loadgen.OpSpec{
			{Op: loadgen.OpCreateVolume, Role: loadgen.RoleAdmin, Weight: 15},
			{Op: loadgen.OpCreateVolume, Role: loadgen.RoleMember, Weight: 10},
			{Op: loadgen.OpDeleteVolume, Role: loadgen.RoleAdmin, Weight: 25},
			{Op: loadgen.OpUpdateVolume, Role: loadgen.RoleMember, Weight: 15},
			{Op: loadgen.OpUpdateVolume, Role: loadgen.RoleAdmin, Weight: 5},
			{Op: loadgen.OpGetVolume, Role: loadgen.RoleMember, Weight: 10},
			{Op: loadgen.OpGetVolume, Role: loadgen.RoleUser, Weight: 5},
			{Op: loadgen.OpDeleteVolume, Role: loadgen.RoleUser, Weight: 3},
			{Op: loadgen.OpCreateVolume, Role: loadgen.RoleUser, Weight: 2},
		},
		Tenants:     32,
		Instances:   2,
		Prepopulate: 8,
		RTT:         time.Millisecond,
		Budget:      1500,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// permitted is the paper's Table I authorization matrix as the workload
// issues it: admins may do everything, members everything but delete,
// users only read, and anonymous requesters nothing. A request outside
// the matrix must be blocked with 412.
func permitted(op loadgen.OpKind, role string) bool {
	switch role {
	case loadgen.RoleAdmin:
		return true
	case loadgen.RoleMember:
		return op != loadgen.OpDeleteVolume
	case loadgen.RoleUser:
		return op == loadgen.OpGetVolume
	}
	return false
}
