// Package faults is a seeded, deterministic fault injector for chaos
// testing the prediction pipeline. Probes are placed at named sites in the
// offline, kNN and evaluation hot paths; when the injector is armed, a
// probe may return an error, sleep a bounded latency, or panic, and the
// surrounding code must degrade cleanly (retry, fall back, or skip the one
// item) instead of corrupting or aborting the batch.
//
// Determinism contract: whether a probe fires is a pure hash of
// (seed, site, key), never of call order, goroutine identity, or wall
// clock. Callers key each probe by the item's content (an action string, a
// context fingerprint, a sample index), so the same workload degrades
// identically at every worker count — which is what lets the parallel
// equivalence suite run unchanged under injection (the CI chaos step).
//
// The injector is off by default and a disabled probe costs one atomic
// pointer load. It is armed programmatically via Enable, or from the
// environment: IDAREPRO_FAULTS="p=0.05,seed=7,kinds=error|latency|panic"
// (parsed at package init, and by the idarepro CLI's -faults flag).
package faults

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Kind is a bitmask of fault flavors a probe (or a configuration) allows.
type Kind uint8

const (
	// KindError makes the probe return an injected *Fault error.
	KindError Kind = 1 << iota
	// KindLatency makes the probe sleep a bounded, deterministic duration.
	KindLatency
	// KindPanic makes the probe panic with a *Fault value. Only probes
	// whose call sites recover per item advertise this kind.
	KindPanic

	// KindAll enables every flavor.
	KindAll = KindError | KindLatency | KindPanic
)

// String renders the bitmask as "error|latency|panic".
func (k Kind) String() string {
	var parts []string
	if k&KindError != 0 {
		parts = append(parts, "error")
	}
	if k&KindLatency != 0 {
		parts = append(parts, "latency")
	}
	if k&KindPanic != 0 {
		parts = append(parts, "panic")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// Named injection sites. Each constant marks one probe in the pipeline;
// the site name is also the prefix filter accepted by Config.Sites and the
// label on the injection counters.
const (
	// SiteOfflineRawScore guards the per-action raw interestingness
	// scoring of the offline analysis (degrades to an unscored action).
	SiteOfflineRawScore = "offline.raw_score"
	// SiteRefExecute guards one reference-action execution of Algorithm 1
	// (degrades to the normalized-comparison fallback when the reference
	// set starves).
	SiteRefExecute = "offline.ref.execute"
	// SiteNormalizeFit guards one per-measure Box-Cox fit of Algorithm 2
	// (degrades to the z-score-only normalizer).
	SiteNormalizeFit = "offline.normalize.fit"
	// SiteKNNScan guards one in-process kNN query scan (an exhausted query
	// gets no candidates, so only FallbackPrior can answer it).
	SiteKNNScan = "knn.scan"
	// SiteEvalPairwise guards one pairwise distance of an EvalSet build
	// (degrades to an infinitely-far distance).
	SiteEvalPairwise = "eval.pairwise"
	// SiteEvalLOOCV guards one leave-one-out outcome of EvaluateKNN
	// (degrades to an abstained outcome).
	SiteEvalLOOCV = "eval.loocv"
	// SiteServePredict guards one HTTP prediction request of the serving
	// layer (degrades to a 503 the client can retry; the server itself
	// stays up).
	SiteServePredict = "serve.predict"
	// SiteCheckpointWrite guards one checkpoint flush of the offline
	// reference pass (degrades to a skipped write: progress stays dirty in
	// memory and the next flush retries it; the run itself continues).
	SiteCheckpointWrite = "checkpoint.write"
	// SiteServeReload guards one hot model reload of the serving layer
	// (degrades to a rejected reload: the previous model keeps serving).
	SiteServeReload = "serve.reload"
	// SiteClientRequest guards one outbound request of the resilient HTTP
	// client (degrades to a retried, then breaker-counted, failure).
	SiteClientRequest = "client.request"
	// SiteRingRoute guards one router→replica fan-out hop of the sharded
	// serving tier (degrades to the next replica in the failover order,
	// then to the prior label).
	SiteRingRoute = "ring.route"
	// SiteRingHealth guards one active health probe of a ring replica (a
	// failure walks the replica down the probation/ejection machine).
	SiteRingHealth = "ring.health"
	// SiteRingRepair guards one snapshot push of the self-healing repair
	// loop (a failure leaves the replica stale until the next sweep).
	SiteRingRepair = "ring.repair"
	// SiteServeSlow is the gray-failure site: a latency-only probe on the
	// replica candidates path, addressed per node as serve.slow.<node> so
	// one replica of a ring can be skewed while its peers stay fast (the
	// prefix-matched Sites filter selects the node). It never fails a
	// request — that is exactly what makes the failure gray.
	SiteServeSlow = "serve.slow"
)

// Sites lists every named injection site (for docs, tests, and chaos
// sweeps that want full coverage).
func Sites() []string {
	return []string{
		SiteOfflineRawScore,
		SiteRefExecute,
		SiteNormalizeFit,
		SiteKNNScan,
		SiteEvalPairwise,
		SiteEvalLOOCV,
		SiteServePredict,
		SiteCheckpointWrite,
		SiteServeReload,
		SiteClientRequest,
		SiteRingRoute,
		SiteRingHealth,
		SiteRingRepair,
		SiteServeSlow,
	}
}

// Config arms the injector.
type Config struct {
	// Prob is the per-probe injection probability in [0, 1].
	Prob float64
	// Seed drives the deterministic fire/kind/latency decisions.
	Seed uint64
	// Kinds is the set of fault flavors to inject; zero means KindAll.
	// Each probe additionally declares which kinds it tolerates, and only
	// the intersection fires.
	Kinds Kind
	// Sites restricts injection to sites with one of these prefixes;
	// empty (or a "*" entry) arms every site.
	Sites []string
	// MaxLatency bounds KindLatency sleeps; zero means 200µs (small
	// enough for -race test runs, large enough to shuffle goroutine
	// schedules).
	MaxLatency time.Duration
}

// Fault is the error/panic value carried by every injected fault.
type Fault struct {
	// Site is the injection site that fired.
	Site string
	// Key is the caller-supplied item key the decision was hashed on.
	Key string
	// Kind is the flavor that fired (KindError for returned errors,
	// KindPanic for panics).
	Kind Kind
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("faults: injected %s at %s (key %q)", f.Kind, f.Site, f.Key)
}

// IsInjected reports whether err originates from the injector. Injected
// errors are transient by construction (a retry with a fresh attempt key
// re-rolls the dice), so retry loops use this as their retryability test.
func IsInjected(err error) bool {
	for err != nil {
		if _, ok := err.(*Fault); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// injector is the immutable armed state; a nil pointer means disabled.
type injector struct {
	cfg        Config
	sites      []string // normalized prefixes; nil means all
	maxLatency time.Duration
}

var active atomic.Pointer[injector]

// Injection telemetry: total probes fired plus a per-kind split, published
// through the shared obs collector (they appear in the -v snapshot table).
var (
	mInjected       = obs.C("faults.injected")
	mInjectedError  = obs.C("faults.injected.error")
	mInjectedSleep  = obs.C("faults.injected.latency")
	mInjectedPanic  = obs.C("faults.injected.panic")
	mRetries        = obs.C("faults.retries")
	mRetryExhausted = obs.C("faults.retry_exhausted")
)

// mInjectedAt splits faults.injected per site. Every named site is
// pre-registered (not lazily created on first fire), so the /metrics
// surface exports a stable zero-valued series for each fault site even
// before — or without — the injector ever firing there. Derived sites
// (serve.slow.<node>) are added through RegisterSite, hence the lock.
var (
	injectedAtMu sync.RWMutex
	mInjectedAt  = func() map[string]*obs.Counter {
		sites := Sites()
		m := make(map[string]*obs.Counter, len(sites))
		for _, s := range sites {
			m[s] = obs.C("faults.injected[site=" + s + "]")
		}
		return m
	}()
)

// RegisterSite pre-registers the injection counter for a derived site
// name (e.g. serve.slow.<node>), so per-node chaos sites get the same
// stable /metrics series as the static ones. Idempotent.
func RegisterSite(site string) {
	injectedAtMu.Lock()
	defer injectedAtMu.Unlock()
	if _, ok := mInjectedAt[site]; !ok {
		mInjectedAt[site] = obs.C("faults.injected[site=" + site + "]")
	}
}

// siteCounter looks up a site's injection counter (nil for unregistered
// derived sites — the aggregate faults.injected still counts them).
func siteCounter(site string) *obs.Counter {
	injectedAtMu.RLock()
	defer injectedAtMu.RUnlock()
	return mInjectedAt[site]
}

// Enable arms the injector with cfg. Passing Prob <= 0 disables it.
func Enable(cfg Config) {
	if cfg.Prob <= 0 {
		Disable()
		return
	}
	if cfg.Prob > 1 {
		cfg.Prob = 1
	}
	if cfg.Kinds == 0 {
		cfg.Kinds = KindAll
	}
	inj := &injector{cfg: cfg, maxLatency: cfg.MaxLatency}
	if inj.maxLatency <= 0 {
		inj.maxLatency = 200 * time.Microsecond
	}
	for _, s := range cfg.Sites {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if s == "*" {
			inj.sites = nil
			break
		}
		inj.sites = append(inj.sites, s)
	}
	active.Store(inj)
}

// Disable disarms the injector.
func Disable() { active.Store(nil) }

// Enabled reports whether the injector is armed. Call sites use it to skip
// probe-key construction entirely on the common path.
func Enabled() bool { return active.Load() != nil }

// Active returns the armed configuration, if any.
func Active() (Config, bool) {
	inj := active.Load()
	if inj == nil {
		return Config{}, false
	}
	return inj.cfg, true
}

func (inj *injector) armed(site string) bool {
	if inj.sites == nil {
		return true
	}
	for _, p := range inj.sites {
		if strings.HasPrefix(site, p) {
			return true
		}
	}
	return false
}

// hash64 is FNV-1a over (seed, site, key) with domain separation, the pure
// function behind every injection decision.
func hash64(seed uint64, site, key string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h = (h ^ (seed >> (8 * i) & 0xFF)) * prime
	}
	for i := 0; i < len(site); i++ {
		h = (h ^ uint64(site[i])) * prime
	}
	h = (h ^ 0x1F) * prime
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime
	}
	// FNV-1a mixes poorly into the high bits on short keys, and fraction()
	// consumes the top 53 — finish with a strong avalanche (murmur3 fmix64)
	// so probe decisions are uniform even for keys like small integers.
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 33
	return h
}

// fraction maps a hash to a uniform float64 in [0, 1).
func fraction(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Key builds a retry-aware probe key: each attempt re-rolls the decision,
// so transient injected faults really are transient under retry.
func Key(base string, attempt int) string {
	if attempt == 0 {
		return base
	}
	return base + "#" + strconv.Itoa(attempt)
}

// Inject is the probe: it decides — purely from (seed, site, key) —
// whether a fault fires here, and which flavor. allowed restricts the
// flavors this site tolerates (sites without per-item panic recovery must
// not advertise KindPanic). It returns a *Fault error for KindError,
// sleeps and returns nil for KindLatency, and panics with a *Fault for
// KindPanic. The sleep ends early when ctx is done, so a caller that
// gives up stops waiting on it; a nil ctx never is. Disabled, unarmed,
// or not-fired probes return nil.
func Inject(ctx context.Context, site, key string, allowed Kind) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	if !inj.armed(site) {
		return nil
	}
	h := hash64(inj.cfg.Seed, site, key)
	if fraction(h) >= inj.cfg.Prob {
		return nil
	}
	kinds := allowed & inj.cfg.Kinds
	if kinds == 0 {
		return nil
	}
	var flavors []Kind
	for _, k := range []Kind{KindError, KindLatency, KindPanic} {
		if kinds&k != 0 {
			flavors = append(flavors, k)
		}
	}
	// Re-hash (domain-separated) so the flavor choice is independent of
	// the fire decision.
	h2 := hash64(inj.cfg.Seed^0x9E3779B97F4A7C15, site, key)
	k := flavors[int(h2%uint64(len(flavors)))]
	mInjected.Inc()
	if c := siteCounter(site); c != nil {
		c.Inc()
	}
	switch k {
	case KindLatency:
		mInjectedSleep.Inc()
		sleep(ctx, time.Duration(fraction(h2)*float64(inj.maxLatency)))
		return nil
	case KindPanic:
		mInjectedPanic.Inc()
		panic(&Fault{Site: site, Key: key, Kind: KindPanic})
	default:
		mInjectedError.Inc()
		return &Fault{Site: site, Key: key, Kind: KindError}
	}
}

// sleep waits d, or until ctx is done; a nil ctx never is.
func sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	if ctx == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// EnvVar is the environment variable the injector arms itself from at
// process start (and that the CI chaos step sets).
const EnvVar = "IDAREPRO_FAULTS"

// ParseSpec parses a fault specification of the form
//
//	p=0.05,seed=7,kinds=error|latency|panic,sites=offline;knn,maxlat=1ms
//
// Fields may appear in any order; unknown fields are errors. kinds and
// sites are optional (defaults: all kinds, all sites).
func ParseSpec(spec string) (Config, error) {
	cfg := Config{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return Config{}, fmt.Errorf("faults: malformed field %q (want key=value)", field)
		}
		switch strings.ToLower(strings.TrimSpace(k)) {
		case "p", "prob":
			p, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil || p < 0 || p > 1 {
				return Config{}, fmt.Errorf("faults: bad probability %q", v)
			}
			cfg.Prob = p
		case "seed":
			s, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return Config{}, fmt.Errorf("faults: bad seed %q", v)
			}
			cfg.Seed = s
		case "kinds":
			for _, name := range strings.Split(v, "|") {
				switch strings.ToLower(strings.TrimSpace(name)) {
				case "error":
					cfg.Kinds |= KindError
				case "latency":
					cfg.Kinds |= KindLatency
				case "panic":
					cfg.Kinds |= KindPanic
				case "all":
					cfg.Kinds = KindAll
				default:
					return Config{}, fmt.Errorf("faults: unknown kind %q", name)
				}
			}
		case "sites":
			for _, s := range strings.Split(v, ";") {
				if s = strings.TrimSpace(s); s != "" {
					cfg.Sites = append(cfg.Sites, s)
				}
			}
		case "maxlat", "maxlatency":
			d, err := time.ParseDuration(strings.TrimSpace(v))
			if err != nil || d < 0 {
				return Config{}, fmt.Errorf("faults: bad max latency %q", v)
			}
			cfg.MaxLatency = d
		default:
			return Config{}, fmt.Errorf("faults: unknown field %q", k)
		}
	}
	return cfg, nil
}

// EnableFromEnv arms the injector from EnvVar if it is set. It reports
// whether injection was enabled; a malformed spec is returned as an error
// and leaves the injector disabled.
func EnableFromEnv() (bool, error) {
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return false, nil
	}
	cfg, err := ParseSpec(spec)
	if err != nil {
		return false, err
	}
	if cfg.Prob <= 0 {
		return false, nil
	}
	Enable(cfg)
	return true, nil
}

// init arms the injector from the environment so test binaries and the CLI
// both honor IDAREPRO_FAULTS without explicit wiring. A malformed spec is
// reported loudly (a chaos run silently running without faults would
// defeat its purpose) but does not abort the process.
func init() {
	if _, err := EnableFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "faults:", EnvVar, "ignored:", err)
	}
}
