package repro

import (
	"repro/internal/obs"
)

// TelemetrySnapshot is a JSON-serializable point-in-time copy of every
// pipeline metric: counters (kNN scans and distance evaluations, display
// distances computed, eval's display-memo hits/misses, reference-set
// enumeration, Box-Cox λ-search iterations, per-measure evaluation
// counts, generation throughput), gauges (eval's memo size) and latency
// histograms (per-measure scoring, stage timings for gen → offline →
// train → predict). Table() renders it as an aligned plain-text table.
type TelemetrySnapshot = obs.Snapshot

// TelemetryLevel selects whether hot paths read clocks. Counters, gauges
// and pipeline-stage timings record at every level.
type TelemetryLevel = obs.Mode

const (
	// TelemetryCounters (the default) skips per-event latency histograms
	// so hot paths take no clock reads.
	TelemetryCounters = obs.ModeCounters
	// TelemetryTiming additionally records fine-grained latencies
	// (per-measure scoring, per-tree-edit-call).
	TelemetryTiming = obs.ModeTiming
)

// Telemetry snapshots the process-wide pipeline telemetry. Safe to call
// at any time, including concurrently with a running analysis.
func Telemetry() TelemetrySnapshot { return obs.Default.Snapshot() }

// SetTelemetryLevel switches the process-wide level (see the
// TelemetryLevel constants).
func SetTelemetryLevel(l TelemetryLevel) { obs.SetMode(l) }

// ResetTelemetry zeroes every metric (level and metric handles are kept),
// so subsequent snapshots report deltas from this point.
func ResetTelemetry() { obs.Default.Reset() }

// ServeTelemetry publishes the telemetry snapshot to expvar (name
// "idarepro") and starts an HTTP server on addr exposing /debug/vars and
// /debug/pprof/. It returns the bound address (use ":0" to pick a free
// port) without blocking. The equivalent CLI switch is
// `idarepro -telemetry ADDR`.
func ServeTelemetry(addr string) (string, error) { return obs.ServeTelemetry(addr) }
