package ring

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// State is a replica's health as seen by one observer (a router). Health
// is a local opinion, not consensus: each router runs its own Checker and
// routes on its own view.
type State int

const (
	// Healthy replicas are preferred routing targets.
	Healthy State = iota
	// Degraded replicas are gray failures: they answer (no liveness
	// signal condemns them) but at latency far above their peers'. They
	// stay routable — ejecting on latency alone would trade a slow answer
	// for a lost replica — but sort behind every Healthy peer in Order,
	// so they see traffic only when the fast replicas cannot answer.
	// Degraded is a latency overlay on Healthy, not a rung of the
	// failure machine: a request failure moves the node to Probation
	// exactly as it would a Healthy one.
	Degraded
	// Probation replicas recently failed (or just recovered from
	// ejection): they are selectable only when no Healthy replica of the
	// shard remains, and a single further failure ejects them. The
	// asymmetry — one failure to leave Healthy, one success to return —
	// keeps a flapping replica from absorbing traffic while still letting
	// a recovered one re-earn preference quickly.
	Probation
	// Ejected replicas are not routed to at all; only the active prober
	// talks to them, and a probe success readmits them via Probation.
	Ejected
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Probation:
		return "probation"
	case Ejected:
		return "ejected"
	default:
		return "unknown"
	}
}

// Probe checks one node and reports whether it is serving (a GET /readyz
// in production; a stub in tests). It must honor ctx.
type Probe func(ctx context.Context, n Node) error

var (
	mEjections        = obs.C("ring.ejections")
	mProbations       = obs.C("ring.probations")
	mRecoveries       = obs.C("ring.recoveries")
	mProbeFailures    = obs.C("ring.probe_failures")
	mDegraded         = obs.C("ring.degraded")
	mDegradeRecovered = obs.C("ring.degrade_recovered")
)

// CheckerOptions tune the health checker.
type CheckerOptions struct {
	// ProbeTimeout bounds one probe call. <=0 means 1s.
	ProbeTimeout time.Duration
	// Probe is the active check ProbeOnce runs; nil makes rounds no-ops.
	Probe Probe
}

// Gray-failure detection: a node is Degraded while the EWMA of its
// latency window exceeds max(degradeFactor × peer-median EWMA,
// degradeFloor), and recovers below half that threshold (hysteresis).
const (
	// latencyWindow sizes the per-node rolling latency window.
	latencyWindow = 64
	// minLatencySamples is how many samples a node needs before its
	// latency opinion counts (for itself and for the peer baseline).
	minLatencySamples = 5
	degradeFactor     = 3
	// degradeFloor is the absolute latency below which a node is never
	// Degraded, however slow relative to its peers — sub-millisecond
	// spread is noise, not gray failure.
	degradeFloor = 2 * time.Millisecond
)

// Checker tracks per-node health for a ring from three signal streams:
// passive routing outcomes (ReportSuccess/ReportFailure from the router's
// own requests), per-request latency observations (ReportLatency, the
// gray-failure detector), and active probe rounds (ProbeOnce, which the
// router runs on a ticker) — the only way an Ejected node gets back in.
// Metrics mirror every transition.
type Checker struct {
	ring *Ring
	opts CheckerOptions

	mu    sync.Mutex
	state map[string]*nodeHealth
	// gauges holds the pre-registered per-node state gauges so /metrics
	// shows every replica from startup (same idiom as the per-site fault
	// counters in internal/faults).
	gauges map[string]*obs.Gauge
	// stateGauges count nodes per (effective) state —
	// ring.replica_state[state=degraded] etc., the series the chaos
	// smoke asserts on.
	stateGauges map[State]*obs.Gauge
}

// nodeHealth is one node's state plus a generation counter bumped on
// every state change. Probes snapshot the generation before the (slow)
// network call and their outcome is applied only if it still matches:
// a probe success that raced a routing-driven ejection is evidence from
// before the ejection and must not readmit the node.
//
// slow is the gray-failure overlay, kept outside the state machine (and
// its generation guard): latency evidence and liveness evidence are
// independent observations, and a probe verdict about liveness must not
// be invalidated by a latency flip that happened mid-probe. A node's
// effective State is Degraded while its base state is Healthy and slow
// is set.
type nodeHealth struct {
	state State
	gen   uint64
	slow  bool
	lat   *LatencyWindow
}

// effective folds the slowness overlay into the reported state.
func (nh *nodeHealth) effective() State {
	if nh.state == Healthy && nh.slow {
		return Degraded
	}
	return nh.state
}

// NewChecker builds a checker with every node Healthy.
func NewChecker(r *Ring, opts CheckerOptions) *Checker {
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = time.Second
	}
	c := &Checker{
		ring:        r,
		opts:        opts,
		state:       make(map[string]*nodeHealth),
		gauges:      make(map[string]*obs.Gauge),
		stateGauges: make(map[State]*obs.Gauge),
	}
	for _, st := range []State{Healthy, Degraded, Probation, Ejected} {
		c.stateGauges[st] = obs.G("ring.replica_state[state=" + st.String() + "]")
	}
	for _, n := range r.Nodes() {
		c.state[n.Name] = &nodeHealth{state: Healthy, lat: NewLatencyWindow(latencyWindow)}
		c.gauges[n.Name] = obs.G("ring.replica_state[node=" + n.Name + "]")
		c.gauges[n.Name].Set(int64(Healthy))
	}
	c.recountLocked()
	return c
}

// State returns the checker's current opinion of a node.
func (c *Checker) State(name string) State {
	c.mu.Lock()
	defer c.mu.Unlock()
	if nh, ok := c.state[name]; ok {
		return nh.effective()
	}
	return Healthy
}

// States returns a snapshot of every node's state.
func (c *Checker) States() map[string]State {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]State, len(c.state))
	for k, v := range c.state {
		out[k] = v.effective()
	}
	return out
}

// Latency reports a node's windowed latency view: EWMA, p95, and sample
// count. Zeroes for unknown nodes or before any observation.
func (c *Checker) Latency(name string) (ewma, p95 time.Duration, n int) {
	c.mu.Lock()
	nh, ok := c.state[name]
	c.mu.Unlock()
	if !ok {
		return 0, 0, 0
	}
	// The window has its own lock; c.mu only guards the map.
	return nh.lat.EWMA(), nh.lat.Quantile(0.95), nh.lat.Count()
}

// ReportLatency feeds one real request outcome's latency into the
// gray-failure detector. Callers report the service time of successful
// calls, and the elapsed time of calls they abandoned (a cancelled hedge
// loser): the latter under-reports the node's true latency but is still
// a lower bound far above a healthy peer's, which is all detection
// needs.
//
// Degradation is relative and hysteretic: a node enters Degraded when
// its EWMA exceeds max(degradeFactor × peer-median, degradeFloor) and
// leaves below half that threshold. The peer median makes the detector
// self-calibrating — a uniformly slow tier degrades nobody — and the
// floor keeps sub-millisecond spread from flagging anything.
func (c *Checker) ReportLatency(name string, d time.Duration) {
	c.mu.Lock()
	nh, ok := c.state[name]
	c.mu.Unlock()
	if !ok {
		return
	}
	nh.lat.Observe(d)
	c.reevaluateSlow()
}

// reevaluateSlow recomputes every node's slowness flag against the
// current peer baseline.
func (c *Checker) reevaluateSlow() {
	c.mu.Lock()
	defer c.mu.Unlock()
	ewmas := make([]float64, 0, len(c.state))
	for _, nh := range c.state {
		if nh.lat.Count() >= minLatencySamples {
			ewmas = append(ewmas, float64(nh.lat.EWMA()))
		}
	}
	if len(ewmas) == 0 {
		return
	}
	sort.Float64s(ewmas)
	baseline := ewmas[(len(ewmas)-1)/2] // lower median
	threshold := max(degradeFactor*baseline, float64(degradeFloor))
	changed := false
	for name, nh := range c.state {
		if nh.lat.Count() < minLatencySamples {
			continue
		}
		ewma := float64(nh.lat.EWMA())
		switch {
		case !nh.slow && ewma > threshold:
			nh.slow = true
			mDegraded.Inc()
			changed = true
		case nh.slow && ewma < threshold/2:
			nh.slow = false
			mDegradeRecovered.Inc()
			changed = true
		default:
			continue
		}
		c.gauges[name].Set(int64(nh.effective()))
	}
	if changed {
		c.recountLocked()
	}
}

// recountLocked refreshes the per-state node-count gauges; c.mu held.
func (c *Checker) recountLocked() {
	counts := make(map[State]int64, 4)
	for _, nh := range c.state {
		counts[nh.effective()]++
	}
	for st, g := range c.stateGauges {
		g.Set(counts[st])
	}
}

// ReportSuccess records a successful request to a node. Probation →
// Healthy; Ejected stays Ejected (the router should not have routed
// there, and readmission is the prober's call — a stray late success
// from a request issued before ejection must not short-circuit it).
func (c *Checker) ReportSuccess(name string) {
	c.transition(name, func(s State) State {
		if s == Probation {
			mRecoveries.Inc()
			return Healthy
		}
		return s
	})
}

// ReportFailure records a failed request to a node: Healthy → Probation,
// Probation → Ejected.
func (c *Checker) ReportFailure(name string) {
	c.transition(name, downward)
}

// downward is the shared failure path: Healthy → Probation → Ejected.
func downward(s State) State {
	switch s {
	case Healthy:
		mProbations.Inc()
		return Probation
	case Probation:
		mEjections.Inc()
		return Ejected
	}
	return s
}

// reportProbe folds one active-probe outcome in, but only if the node's
// generation still matches the snapshot taken before the probe started —
// a probe is a slow observation, and if the state changed underneath it
// (say, two routing failures ejected the node mid-probe) its verdict
// describes a node that no longer exists and is dropped. Without the
// guard, the stale success readmits a just-ejected node and the router
// resumes sending real traffic to a replica only the prober should
// touch. A fresh probe success readmits an Ejected node to Probation
// (not straight to Healthy: it must survive one real request first) and
// heals Probation → Healthy; a probe failure walks the same downward
// path as a routing failure, so a dead-but-idle replica is ejected by
// the prober alone.
func (c *Checker) reportProbe(name string, gen uint64, err error) {
	if err != nil {
		mProbeFailures.Inc()
		c.transitionIf(name, gen, downward)
		return
	}
	c.transitionIf(name, gen, func(s State) State {
		switch s {
		case Ejected:
			return Probation
		case Probation:
			mRecoveries.Inc()
			return Healthy
		}
		return s
	})
}

func (c *Checker) transition(name string, f func(State) State) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.apply(name, f)
}

// transitionIf applies f only if the node's generation still equals gen
// — the compare-and-swap that keeps stale probe outcomes from clobbering
// fresher passive signals.
func (c *Checker) transitionIf(name string, gen uint64, f func(State) State) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if nh, ok := c.state[name]; !ok || nh.gen != gen {
		return
	}
	c.apply(name, f)
}

// apply runs one transition under c.mu, bumping the generation on any
// state change.
func (c *Checker) apply(name string, f func(State) State) {
	nh, ok := c.state[name]
	if !ok {
		return // not a ring member
	}
	next := f(nh.state)
	if next != nh.state {
		nh.state = next
		nh.gen++
		c.gauges[name].Set(int64(nh.effective()))
		c.recountLocked()
	}
}

// generation snapshots a node's current generation for a probe about to
// start.
func (c *Checker) generation(name string) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	nh, ok := c.state[name]
	if !ok {
		return 0, false
	}
	return nh.gen, true
}

// Order returns shard's replica group sorted for routing: Healthy nodes
// first (in circle-walk preference order), then Degraded, then Probation,
// never Ejected. An empty result means the shard is unavailable and the
// caller must degrade.
func (c *Checker) Order(shard int) []Node {
	group := c.ring.ReplicaGroup(shard)
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Node, 0, len(group))
	for _, n := range group {
		if c.state[n.Name].state != Ejected {
			out = append(out, n)
		}
	}
	// Stable: preserves circle-walk preference within each state class.
	sort.SliceStable(out, func(i, j int) bool {
		return c.state[out[i].Name].effective() < c.state[out[j].Name].effective()
	})
	return out
}

// ShardHealthy reports whether shard has at least one serving replica —
// the per-shard predicate behind the router's /readyz. Degraded counts:
// a gray-slow replica still answers, so the shard is available (just not
// fast), and flipping /readyz on latency alone would let one slow node
// take a whole router out of the load balancer.
func (c *Checker) ShardHealthy(shard int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.ring.ReplicaGroup(shard) {
		if c.state[n.Name].state == Healthy {
			return true
		}
	}
	return false
}

// UnhealthyShards lists shards with zero Healthy replicas, ascending.
func (c *Checker) UnhealthyShards() []int {
	var out []int
	for sh := 0; sh < c.ring.Shards(); sh++ {
		if !c.ShardHealthy(sh) {
			out = append(out, sh)
		}
	}
	return out
}

// ProbeOnce runs a single probe round. One round probes nodes
// sequentially in spec order — the tier is small (a handful of nodes)
// and sequential probing keeps outcomes ordered and easy to reason about
// in tests.
func (c *Checker) ProbeOnce(ctx context.Context) {
	if c.opts.Probe == nil {
		return
	}
	for _, n := range c.ring.Nodes() {
		if ctx.Err() != nil {
			return
		}
		gen, ok := c.generation(n.Name)
		if !ok {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, c.opts.ProbeTimeout)
		err := c.opts.Probe(pctx, n)
		cancel()
		c.reportProbe(n.Name, gen, err)
	}
}
