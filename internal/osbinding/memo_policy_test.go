package osbinding_test

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"cloudmon/internal/faults"
	"cloudmon/internal/loadgen"
	"cloudmon/internal/monitor"
	"cloudmon/internal/osclient"
)

// TestListMemoFaultPolicies drives a monitored volume read whose
// pre-state list read is truncated or malformed while the provider's list
// memo holds the current, good body. Under every fail policy the verdict
// must be the one a failed read earns (FailClosed: error, FailOpen:
// unverified, Degrade: the monitor's own stale-cache rescue), never a
// clean verdict decided on the memoised collection.
func TestListMemoFaultPolicies(t *testing.T) {
	for _, kind := range []faults.Kind{faults.KindTruncate, faults.KindMalformed} {
		for _, policy := range []monitor.FailPolicy{monitor.FailClosed, monitor.FailOpen, monitor.Degrade} {
			t.Run(fmt.Sprintf("%s/%s", kind, policy), func(t *testing.T) {
				t.Parallel()
				opts := loadgen.DeployOptions{
					Level:        monitor.CheckPreOnly,
					FailPolicy:   policy,
					CloudTimeout: 200 * time.Millisecond,
					Retry:        osclient.RetryPolicy{MaxAttempts: 2, BaseDelay: 2 * time.Millisecond},
					// Every GET under /volumes is hit: the list, the
					// volume's status read and the forwarded read.
					Faults: &faults.Profile{Rules: []faults.Rule{
						{Kind: kind, Method: http.MethodGet, Path: "/volumes", Every: 1},
					}},
				}
				if policy == monitor.Degrade {
					opts.PreStateCacheTTL = 30 * time.Millisecond
					opts.DegradeTTL = 10 * time.Second
				}
				dep, err := loadgen.Deploy(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer dep.Close()
				mon, prov := dep.Sys.Monitor, dep.Sys.Provider
				admin := &osclient.Client{
					BaseURL:    dep.Target.BaseURL,
					Token:      dep.Target.Tokens[loadgen.RoleAdmin],
					HTTPClient: dep.Target.HTTPClient,
				}
				var created struct {
					Volume struct {
						ID string `json:"id"`
					} `json:"volume"`
				}
				// Faults off: a create, then two identical reads of the
				// volume, whose pre-state lists the project's volumes.
				// The memo then holds the current list body (the second
				// read hits it), and so does the monitor's pre-state
				// cache.
				dep.Injector.SetEnabled(false)
				in := map[string]map[string]any{"volume": {"name": "memo", "size": 1}}
				if status, err := admin.Do(http.MethodPost, "/projects/"+dep.ProjectID+"/volumes", in, &created, nil); err != nil || status/100 != 2 {
					t.Fatalf("warm create: status %d err %v", status, err)
				}
				volPath := "/projects/" + dep.ProjectID + "/volumes/" + created.Volume.ID
				for i := 0; i < 2; i++ {
					if policy == monitor.Degrade {
						// Let the read-cache TTL lapse so each read goes
						// to the provider; after the loop this lands the
						// faulty read in the degrade window.
						time.Sleep(40 * time.Millisecond)
					}
					if status, err := admin.Do(http.MethodGet, volPath, nil, nil, nil); err != nil || status != http.StatusOK {
						t.Fatalf("warm read: status %d err %v", status, err)
					}
				}
				reuses := prov.Stats().ListReuses
				if reuses == 0 {
					t.Fatal("the warm-up never hit the list memo")
				}
				if policy == monitor.Degrade {
					time.Sleep(40 * time.Millisecond)
				}

				dep.Injector.SetEnabled(true)
				status, err := admin.Do(http.MethodGet, volPath, nil, nil, nil)
				log := mon.Log()
				v := log[len(log)-1]
				if got := prov.Stats().ListReuses; got != reuses {
					t.Fatalf("a %s list body was answered from the memo (%d reuses)", kind, got-reuses)
				}
				if n := dep.Injector.Counts()[string(kind)]; n < 1 {
					t.Fatalf("injector never fired %s", kind)
				}
				switch policy {
				case monitor.FailClosed:
					if v.Outcome != monitor.Error || v.Forwarded || status != http.StatusBadGateway {
						t.Fatalf("verdict %s forwarded=%v status %d err %v; want an unforwarded error (502)",
							v.Outcome, v.Forwarded, status, err)
					}
				case monitor.FailOpen:
					if v.Outcome != monitor.Unverified || !v.Forwarded {
						t.Fatalf("verdict %s forwarded=%v (%s); want unverified and forwarded", v.Outcome, v.Forwarded, v.Detail)
					}
				case monitor.Degrade:
					if v.Outcome != monitor.OK || !v.DegradedPre {
						t.Fatalf("verdict %s degraded=%v (%s); want OK rescued from the stale cache", v.Outcome, v.DegradedPre, v.Detail)
					}
				}
			})
		}
	}
}
