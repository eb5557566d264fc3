package monitor

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cloudmon/internal/obs"
)

// writeEpochs is the monitor's per-project write clock. Every forwarded
// mutation raises its project's in-flight count and moves the epoch when
// it starts, and moves the epoch again and lowers the count when it ends;
// a fleet invalidation (InvalidateProject) moves the epoch too. A read
// stamped with (epoch, no write in flight) therefore stays valid exactly
// as long as the epoch has not moved: no monitored write overlapped the
// interval since. The pre-state cache validates its entries against the
// epoch, and the flight group's join rule is built on it.
//
// Entries are created by writes only; a project never written reads as
// epoch 0 with nothing in flight.
type writeEpochs struct {
	m sync.Map // project id -> *projectEpoch
}

type projectEpoch struct {
	epoch   atomic.Uint64
	writing atomic.Int64
}

func (w *writeEpochs) entry(project string) *projectEpoch {
	if e, ok := w.m.Load(project); ok {
		return e.(*projectEpoch)
	}
	e, _ := w.m.LoadOrStore(project, new(projectEpoch))
	return e.(*projectEpoch)
}

// current returns the project's epoch.
func (w *writeEpochs) current(project string) uint64 {
	if e, ok := w.m.Load(project); ok {
		return e.(*projectEpoch).epoch.Load()
	}
	return 0
}

// stamp returns the project's epoch and whether a write of it is in
// flight. The epoch is read first: a write that starts between the two
// loads either shows as in flight or moves the epoch past the stamp, so
// a clean stamp never hides a write that overlaps the read after it.
func (w *writeEpochs) stamp(project string) (epoch uint64, clean bool) {
	e, ok := w.m.Load(project)
	if !ok {
		return 0, true
	}
	pe := e.(*projectEpoch)
	epoch = pe.epoch.Load()
	return epoch, pe.writing.Load() == 0
}

// begin opens a write of the project; end closes it.
func (w *writeEpochs) begin(project string) *projectEpoch {
	pe := w.entry(project)
	pe.writing.Add(1)
	pe.epoch.Add(1)
	return pe
}

func (pe *projectEpoch) end() {
	pe.epoch.Add(1)
	pe.writing.Add(-1)
}

// bump moves the project's epoch without a write of this monitor's own.
func (w *writeEpochs) bump(project string) {
	w.entry(project).epoch.Add(1)
}

// mutates reports whether a request method may change cloud state. GET
// and HEAD are reads; everything else is bracketed as a write.
func mutates(method string) bool {
	return method != http.MethodGet && method != http.MethodHead
}

// forwardRequest forwards a checked request to the cloud. A mutation
// first waits on the async write fence, then runs inside its project's
// write bracket — the epoch moves as it starts and again as it ends —
// and, once the cloud answered it, fires the fleet's OnInvalidate hook.
// Every forward of every engine and fail policy goes through here, so no
// monitored write can slip past the epoch that shared reads and the
// pre-state cache rely on. The forward stage span excludes the fence
// wait.
func (m *Monitor) forwardRequest(r *http.Request, cr *compiledRoute, params map[string]string, trace *obs.Trace) (*BackendResponse, error) {
	var pe *projectEpoch
	project := params["project_id"]
	write := mutates(r.Method)
	if write {
		m.fenceWrites()
		pe = m.epochs.begin(project)
	}
	start := time.Now()
	resp, err := m.forward.Forward(r, &cr.route, params)
	trace[obs.StageForward] = time.Since(start)
	if write {
		pe.end()
		if m.cache != nil {
			m.cache.invalidations.Inc()
		}
		if err == nil && m.onInvalid != nil {
			m.onInvalid(project)
		}
	}
	return resp, err
}
