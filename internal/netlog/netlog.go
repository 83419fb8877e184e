// Package netlog generates the synthetic network-traffic datasets that
// stand in for the four REACT-IDA network logs (the originals are not
// redistributable/offline). Each generated dataset embeds one distinct
// security event — a port scan, malware beaconing, an internal brute-force
// attack, or data exfiltration — inside realistic background traffic, so
// that analysis sessions over them exhibit the same analytic texture the
// paper describes: grouping reveals skewed protocol/host distributions,
// filtering isolates anomalous after-hours traffic, summaries compact
// thousands of packets into a handful of suspect endpoints.
package netlog

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Scenario identifies one of the four embedded security events.
type Scenario uint8

const (
	// PortScan embeds an external host probing many ports on one target.
	PortScan Scenario = iota
	// Beacon embeds periodic after-hours malware beaconing to a rare
	// external destination.
	Beacon
	// BruteForce embeds an internal host hammering SSH on a server.
	BruteForce
	// Exfil embeds large outbound transfers to an uncommon destination.
	Exfil
)

// Scenarios lists all scenarios in canonical order.
var Scenarios = []Scenario{PortScan, Beacon, BruteForce, Exfil}

// String returns the scenario's dataset name.
func (s Scenario) String() string {
	switch s {
	case PortScan:
		return "netlog-portscan"
	case Beacon:
		return "netlog-beacon"
	case BruteForce:
		return "netlog-bruteforce"
	case Exfil:
		return "netlog-exfil"
	default:
		return fmt.Sprintf("netlog-%d", uint8(s))
	}
}

// Config controls dataset generation.
type Config struct {
	// Rows is the total number of packet rows (background + event).
	// <= 0 means 3000.
	Rows int
	// EventFraction is the fraction of rows belonging to the embedded
	// security event. <= 0 means 0.06.
	EventFraction float64
	// Seed drives the deterministic generator.
	Seed uint64
	// Start is the first timestamp; zero means 2018-03-01T08:00:00Z
	// (the REACT-IDA collection era).
	Start time.Time
}

func (c Config) withDefaults(s Scenario) Config {
	if c.Rows <= 0 {
		c.Rows = 3000
	}
	if c.EventFraction <= 0 {
		c.EventFraction = 0.06
	}
	if c.Seed == 0 {
		c.Seed = 0xDA7A5E7 + uint64(s)
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2018, 3, 1, 8, 0, 0, 0, time.UTC)
	}
	return c
}

// Schema returns the packet-log schema shared by all scenarios.
func Schema() dataset.Schema {
	return dataset.Schema{
		{Name: "time", Kind: dataset.KindTime},
		{Name: "src_ip", Kind: dataset.KindString},
		{Name: "dst_ip", Kind: dataset.KindString},
		{Name: "protocol", Kind: dataset.KindString},
		{Name: "src_port", Kind: dataset.KindInt},
		{Name: "dst_port", Kind: dataset.KindInt},
		{Name: "length", Kind: dataset.KindInt},
		{Name: "hour", Kind: dataset.KindInt},
	}
}

var protocols = []string{"HTTP", "HTTPS", "DNS", "SSH", "SMTP", "FTP", "NTP"}

// protocolWeights skew background traffic towards web protocols, giving
// group-by-protocol displays the high-variance shape of the paper's
// running example.
var protocolWeights = []float64{0.34, 0.27, 0.16, 0.06, 0.08, 0.04, 0.05}

var wellKnownPort = map[string]int64{
	"HTTP": 80, "HTTPS": 443, "DNS": 53, "SSH": 22, "SMTP": 25, "FTP": 21, "NTP": 123,
}

// Telemetry handles: dataset-generation throughput.
var (
	mNetlogDatasets = obs.C("netlog.datasets")
	mNetlogRows     = obs.C("netlog.rows")
	hNetlogGenNS    = obs.H("netlog.generate.ns")
)

// Generate builds the dataset for one scenario.
func Generate(s Scenario, cfg Config) *dataset.Table {
	t0 := time.Now()
	cfg = cfg.withDefaults(s)
	rng := stats.NewRNG(cfg.Seed)
	b := dataset.NewBuilder(s.String(), Schema())

	eventRows := int(float64(cfg.Rows) * cfg.EventFraction)
	bgRows := cfg.Rows - eventRows

	internalHosts := makeHosts(rng, "10.0.%d.%d", 18)
	externalHosts := makeHosts(rng, "203.0.%d.%d", 30)
	servers := makeServers(5)

	// Background traffic: business-hours-weighted, web-heavy.
	for i := 0; i < bgRows; i++ {
		ts := businessBiasedTime(rng, cfg.Start)
		proto := protocols[rng.Choice(protocolWeights)]
		src := internalHosts[rng.Intn(len(internalHosts))]
		var dst string
		if rng.Float64() < 0.7 {
			dst = externalHosts[rng.Intn(len(externalHosts))]
		} else {
			dst = servers[rng.Intn(len(servers))]
		}
		length := packetLength(rng, proto)
		b.Append(
			dataset.T(ts),
			dataset.S(src),
			dataset.S(dst),
			dataset.S(proto),
			dataset.I(1024+rng.Int63n(60000)),
			dataset.I(wellKnownPort[proto]),
			dataset.I(length),
			dataset.I(int64(ts.Hour())),
		)
	}

	// Event traffic.
	switch s {
	case PortScan:
		scanner := "198.51.100.23"
		target := servers[0]
		for i := 0; i < eventRows; i++ {
			ts := cfg.Start.Add(time.Duration(rng.Int63n(3600)) * time.Second).Add(2 * time.Hour)
			b.Append(
				dataset.T(ts),
				dataset.S(scanner),
				dataset.S(target),
				dataset.S("TCP-SYN"),
				dataset.I(40000+rng.Int63n(2000)),
				dataset.I(1+rng.Int63n(10240)), // sweeping destination ports
				dataset.I(40+rng.Int63n(20)),   // tiny probe packets
				dataset.I(int64(ts.Hour())),
			)
		}
	case Beacon:
		bot := internalHosts[1]
		c2 := "203.0.113.99"
		period := 73 * time.Second
		t0 := cfg.Start.Add(11 * time.Hour) // 19:00, after business hours
		for i := 0; i < eventRows; i++ {
			ts := t0.Add(time.Duration(i) * period)
			b.Append(
				dataset.T(ts),
				dataset.S(bot),
				dataset.S(c2),
				dataset.S("HTTP"),
				dataset.I(49152+rng.Int63n(1000)),
				dataset.I(8080),
				dataset.I(90+rng.Int63n(12)), // small, uniform beacons
				dataset.I(int64(ts.Hour()%24)),
			)
		}
	case BruteForce:
		attacker := internalHosts[2]
		victim := servers[1]
		for i := 0; i < eventRows; i++ {
			ts := cfg.Start.Add(6 * time.Hour).Add(time.Duration(rng.Int63n(1800)) * time.Second)
			b.Append(
				dataset.T(ts),
				dataset.S(attacker),
				dataset.S(victim),
				dataset.S("SSH"),
				dataset.I(50000+rng.Int63n(4000)),
				dataset.I(22),
				dataset.I(120+rng.Int63n(60)),
				dataset.I(int64(ts.Hour())),
			)
		}
	case Exfil:
		insider := internalHosts[3]
		drop := "192.0.2.77"
		for i := 0; i < eventRows; i++ {
			ts := cfg.Start.Add(13 * time.Hour).Add(time.Duration(rng.Int63n(7200)) * time.Second) // ~21:00-23:00
			b.Append(
				dataset.T(ts),
				dataset.S(insider),
				dataset.S(drop),
				dataset.S("FTP"),
				dataset.I(51000+rng.Int63n(3000)),
				dataset.I(21),
				dataset.I(30000+rng.Int63n(35000)), // huge payloads
				dataset.I(int64(ts.Hour()%24)),
			)
		}
	}
	tbl := b.MustBuild()
	mNetlogDatasets.Inc()
	mNetlogRows.Add(uint64(tbl.NumRows()))
	hNetlogGenNS.ObserveSince(t0)
	return tbl
}

// GenerateAll builds all four scenario datasets with per-scenario seeds
// derived from cfg.Seed.
func GenerateAll(cfg Config) []*dataset.Table {
	out := make([]*dataset.Table, len(Scenarios))
	for i, s := range Scenarios {
		c := cfg
		if c.Seed != 0 {
			c.Seed = c.Seed*1000003 + uint64(s) + 1
		}
		out[i] = Generate(s, c)
	}
	return out
}

// makeServers returns fixed internal server addresses 10.0.0.10..10.0.0.(9+n).
func makeServers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("10.0.0.%d", 10+i)
	}
	return out
}

func makeHosts(rng *stats.RNG, format string, n int) []string {
	out := make([]string, n)
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		for {
			h := fmt.Sprintf(format, rng.Intn(16)+1, rng.Intn(250)+2)
			if !seen[h] {
				seen[h] = true
				out[i] = h
				break
			}
		}
	}
	return out
}

// businessBiasedTime draws timestamps concentrated in 08:00-19:00 with a
// thin after-hours tail, over a single working day.
func businessBiasedTime(rng *stats.RNG, start time.Time) time.Time {
	if rng.Float64() < 0.88 {
		// Business hours: start + U[0, 11h).
		return start.Add(time.Duration(rng.Int63n(11*3600)) * time.Second)
	}
	// After hours: start + 11h + U[0, 9h).
	return start.Add(11 * time.Hour).Add(time.Duration(rng.Int63n(9*3600)) * time.Second)
}

func packetLength(rng *stats.RNG, proto string) int64 {
	switch proto {
	case "DNS", "NTP":
		return 60 + rng.Int63n(180)
	case "SSH":
		return 100 + rng.Int63n(900)
	case "SMTP", "FTP":
		return 200 + rng.Int63n(4000)
	default: // HTTP/HTTPS
		return 300 + rng.Int63n(1200)
	}
}
