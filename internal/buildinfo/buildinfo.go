// Package buildinfo stamps what is running: module version, VCS
// revision, and toolchain, read once from the binary's embedded build
// metadata (runtime/debug.ReadBuildInfo). Every observability surface
// reports it — `idarepro -version`, /v1/model, the idarepro_build_info
// series on /metrics, and the checked-in LOAD_* artifacts — so a
// latency number or a trace can always be joined back to the exact build
// that produced it.
package buildinfo

import (
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
)

// Info identifies a build.
type Info struct {
	// Version is the main module version ("(devel)" for plain `go build`).
	Version string `json:"version"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Revision is the VCS commit hash, when the binary was built inside a
	// checkout with stamping enabled.
	Revision string `json:"revision,omitempty"`
	// Time is the VCS commit time (RFC 3339), when stamped.
	Time string `json:"time,omitempty"`
	// Dirty reports uncommitted changes at build time, when stamped.
	Dirty bool `json:"dirty,omitempty"`
}

var (
	once   sync.Once
	cached Info
)

// Get returns the process's build info. The first call reads the
// embedded metadata; later calls return the cached copy.
func Get() Info {
	once.Do(func() { cached = read(debug.ReadBuildInfo()) })
	return cached
}

// read extracts the fields we stamp from the raw build info. Split out
// from Get so tests can feed synthetic metadata.
func read(bi *debug.BuildInfo, ok bool) Info {
	info := Info{Version: "unknown", GoVersion: runtime.Version()}
	if !ok || bi == nil {
		return info
	}
	if v := bi.Main.Version; v != "" {
		info.Version = v
	}
	if bi.GoVersion != "" {
		info.GoVersion = bi.GoVersion
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.Revision = s.Value
		case "vcs.time":
			info.Time = s.Value
		case "vcs.modified":
			info.Dirty = s.Value == "true"
		}
	}
	return info
}

// String renders the info on one line, e.g.
// "idarepro (devel) go1.24.0 rev 1a2b3c4 (dirty)".
func (i Info) String() string {
	var b strings.Builder
	b.WriteString("idarepro ")
	b.WriteString(i.Version)
	b.WriteString(" ")
	b.WriteString(i.GoVersion)
	if i.Revision != "" {
		b.WriteString(" rev ")
		if len(i.Revision) > 12 {
			b.WriteString(i.Revision[:12])
		} else {
			b.WriteString(i.Revision)
		}
	}
	if i.Dirty {
		b.WriteString(" (dirty)")
	}
	return b.String()
}
