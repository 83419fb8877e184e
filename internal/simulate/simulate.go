// Package simulate generates IDA session logs that stand in for the
// REACT-IDA repository (56 cyber-security analysts, 454 sessions / 2460
// actions over 4 network-log datasets, 122 of them successful).
//
// The simulator does not plant interestingness labels. Instead it models
// what the paper argues produces them: analysts move through latent
// analysis intents — Overview, Verify, Drill, Summarize — that map to the
// four interestingness facets (Diversity, Dispersion, Peculiarity,
// Conciseness). An analyst in a given intent greedily prefers, among the
// candidate actions applicable to the current display, one whose result
// scores high under a measure of the corresponding class; intents evolve
// by a sticky Markov chain whose transitions depend on what just happened
// (e.g. after drilling into a long anomalous list, analysts overwhelmingly
// want a concise summary — the paper's Example 2.2). The offline analysis
// then has to *recover* those latent preferences from the raw action log,
// exactly as it would on real sessions. Because intent shifts every ~2.2
// actions and is correlated with the recent context, the generated log
// reproduces the structural findings of Section 4.1.
package simulate

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/measures"
	"repro/internal/netlog"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/stats"
)

// Intent is a latent analysis goal; each maps to one interestingness class.
type Intent uint8

const (
	// Overview: survey the data's composition (Diversity).
	Overview Intent = iota
	// Verify: confirm a slice looks homogeneous/benign (Dispersion).
	Verify
	// Drill: hunt anomalous patterns (Peculiarity).
	Drill
	// Summarize: compact a suspicious slice into a few groups
	// (Conciseness).
	Summarize
)

// Intents lists all intents in canonical order.
var Intents = []Intent{Overview, Verify, Drill, Summarize}

// Class maps the intent to the interestingness facet it optimizes.
func (i Intent) Class() measures.Class {
	switch i {
	case Overview:
		return measures.Diversity
	case Verify:
		return measures.Dispersion
	case Drill:
		return measures.Peculiarity
	default:
		return measures.Conciseness
	}
}

// String names the intent.
func (i Intent) String() string {
	switch i {
	case Overview:
		return "overview"
	case Verify:
		return "verify"
	case Drill:
		return "drill"
	default:
		return "summarize"
	}
}

// transition returns the next-intent distribution given the previous and
// current intents (a second-order Markov chain). The second-order
// structure is deliberate: whether an analyst who is drilling keeps
// drilling depends on whether this is the first or the second consecutive
// drill, so a predictor that sees a *longer* n-context (two actions rather
// than one) genuinely knows more — the paper's Figure-5 n-effect. Rows are
// tuned so that intents are sticky enough that the dominant measure
// changes roughly every 2.2 actions.
func transition(prev, cur Intent) []float64 {
	repeat := prev == cur
	switch cur {
	case Overview:
		//               Overview Verify Drill Summarize
		if repeat {
			// A second overview exhausts the survey: move to the hunt.
			return []float64{0.10, 0.20, 0.65, 0.05}
		}
		return []float64{0.50, 0.10, 0.40, 0.00}
	case Verify:
		if repeat {
			return []float64{0.35, 0.10, 0.40, 0.15}
		}
		return []float64{0.15, 0.50, 0.25, 0.10}
	case Drill:
		if repeat {
			// Two drills in a row: the slice is isolated, summarize it.
			return []float64{0.05, 0.10, 0.15, 0.70}
		}
		return []float64{0.05, 0.10, 0.55, 0.30}
	default: // Summarize
		if repeat {
			return []float64{0.45, 0.30, 0.20, 0.05}
		}
		return []float64{0.30, 0.20, 0.10, 0.40}
	}
}

// Config controls log generation.
type Config struct {
	// Analysts is the number of simulated analysts. <=0 means 56.
	Analysts int
	// Sessions is the total session count. <=0 means 454.
	Sessions int
	// SuccessRate is the fraction of successful sessions. <=0 means 122/454.
	SuccessRate float64
	// MeanActions is the average session length in actions. <=0 means 5.4
	// (2460/454, as in REACT-IDA).
	MeanActions float64
	// Noise is the probability that an (unsuccessful-session) analyst
	// picks a random rather than intent-optimal action. <=0 means 0.25.
	Noise float64
	// SuccessNoise is the same for successful sessions. <=0 means 0.08.
	SuccessNoise float64
	// CandidateLimit subsamples the candidate actions evaluated per step.
	// <=0 means 24.
	CandidateLimit int
	// Seed drives all randomness.
	Seed uint64
	// DatasetConfig configures the underlying netlog datasets.
	DatasetConfig netlog.Config
}

func (c Config) withDefaults() Config {
	if c.Analysts <= 0 {
		c.Analysts = 56
	}
	if c.Sessions <= 0 {
		c.Sessions = 454
	}
	if c.SuccessRate <= 0 {
		c.SuccessRate = 122.0 / 454.0
	}
	if c.MeanActions <= 0 {
		c.MeanActions = 5.4
	}
	if c.Noise <= 0 {
		c.Noise = 0.25
	}
	if c.SuccessNoise <= 0 {
		c.SuccessNoise = 0.08
	}
	if c.CandidateLimit <= 0 {
		c.CandidateLimit = 24
	}
	if c.Seed == 0 {
		c.Seed = 20190326 // EDBT 2019 opening day
	}
	return c
}

// intentMeasure returns the scoring measure the simulator uses for one
// intent — the canonical member of the intent's class.
func intentMeasure(i Intent) measures.Measure {
	switch i {
	case Overview:
		return measures.VarianceMeasure{}
	case Verify:
		return measures.SchutzMeasure{}
	case Drill:
		return measures.OSFMeasure{}
	default:
		return measures.CompactionGainMeasure{}
	}
}

// Telemetry handles: generation throughput for the "gen" pipeline phase.
var (
	stGen             = obs.S("gen")
	mGenSessions      = obs.C("simulate.sessions")
	mGenActions       = obs.C("simulate.actions")
	mGenBacktracks    = obs.C("simulate.backtracks")
	hGenSessionLength = obs.H("simulate.session.ns")
)

// Generate builds the full repository: the four scenario datasets plus the
// simulated session log.
func Generate(cfg Config) (*session.Repository, error) {
	sp := stGen.Start()
	defer sp.End()
	cfg = cfg.withDefaults()
	repo := session.NewRepository()
	tables := netlog.GenerateAll(cfg.DatasetConfig)
	for _, t := range tables {
		repo.AddDataset(t)
	}
	rng := stats.NewRNG(cfg.Seed)

	// Assign each analyst a skill (their chance of running a successful
	// session) such that the global success rate matches.
	skills := make([]float64, cfg.Analysts)
	for i := range skills {
		s := cfg.SuccessRate + 0.25*rng.NormFloat64()*cfg.SuccessRate
		if s < 0.02 {
			s = 0.02
		}
		if s > 0.95 {
			s = 0.95
		}
		skills[i] = s
	}

	for si := 0; si < cfg.Sessions; si++ {
		analyst := si % cfg.Analysts
		ds := tables[si%len(tables)]
		srng := rng.Fork(uint64(si)*2654435761 + 1)
		successful := srng.Float64() < skills[analyst]

		tSession := time.Now()
		s, err := generateSession(cfg, repo, ds, si, analyst, successful, srng)
		if err != nil {
			return nil, err
		}
		repo.Add(s)
		mGenSessions.Inc()
		mGenActions.Add(uint64(s.Steps()))
		if obs.Timing() {
			hGenSessionLength.ObserveSince(tSession)
		}
	}
	return repo, nil
}

// generateSession simulates one analysis session.
func generateSession(cfg Config, repo *session.Repository, ds *dataset.Table, si, analyst int, successful bool, rng *stats.RNG) (*session.Session, error) {
	root := repo.RootDisplay(ds.Name())
	s := session.New(fmt.Sprintf("s%04d", si), ds.Name(), root)
	s.Analyst = fmt.Sprintf("analyst%02d", analyst)
	s.Successful = successful
	if successful {
		s.Summary = "identified the embedded security event in " + ds.Name()
	}

	noise := cfg.Noise
	length := sampleLength(cfg.MeanActions, rng)
	if successful {
		noise = cfg.SuccessNoise
		length++ // successful sessions run slightly longer (757/122 ≈ 6.2)
	}

	// Analysts open with an overview in the majority of sessions.
	intent := Overview
	prev := Summarize // neutral "fresh start" predecessor
	if rng.Float64() < 0.25 {
		intent = Drill
	} else if rng.Float64() < 0.15 {
		intent = Verify
	}

	for step := 0; step < length; step++ {
		// Occasional backtracking: return to the root (or another
		// ancestor) before acting, as in the paper's running example.
		if step > 0 && rng.Float64() < 0.3 {
			target := s.Root()
			if rng.Float64() < 0.35 && s.Current().Parent != nil {
				target = s.Current().Parent
			}
			if err := s.BackTo(target); err != nil {
				return nil, err
			}
			mGenBacktracks.Inc()
		}
		if err := act(cfg, s, intent, noise, rng); err != nil {
			return nil, err
		}
		prev, intent = intent, Intents[rng.Choice(transition(prev, intent))]
	}
	return s, nil
}

// act chooses and applies one action under the current intent.
func act(cfg Config, s *session.Session, intent Intent, noise float64, rng *stats.RNG) error {
	cur := s.Current()
	cands := engine.EnumerateActions(cur.Display, engine.EnumerateOptions{
		IncludeAggregates: intent == Overview || intent == Verify,
	})
	if len(cands) == 0 {
		// Dead end (e.g. a 1-row display): restart from the root.
		if err := s.BackTo(s.Root()); err != nil {
			return err
		}
		cur = s.Current()
		cands = engine.EnumerateActions(cur.Display, engine.EnumerateOptions{})
		if len(cands) == 0 {
			return fmt.Errorf("simulate: no candidate actions at session %s", s.ID)
		}
	}
	if len(cands) > cfg.CandidateLimit {
		idx := rng.Perm(len(cands))[:cfg.CandidateLimit]
		sub := make([]*engine.Action, len(idx))
		for i, j := range idx {
			sub[i] = cands[j]
		}
		cands = sub
	}

	if rng.Float64() < noise {
		// Imperfect analyst: a random (possibly uninteresting) action.
		return applyFirstExecutable(s, cands, rng)
	}

	// Score every executable candidate under the four canonical measures.
	canonical := []measures.Measure{
		measures.VarianceMeasure{},
		measures.SchutzMeasure{},
		measures.OSFMeasure{},
		measures.CompactionGainMeasure{},
	}
	intentIdx := map[measures.Class]int{
		measures.Diversity: 0, measures.Dispersion: 1,
		measures.Peculiarity: 2, measures.Conciseness: 3,
	}[intent.Class()]

	type scored struct {
		a      *engine.Action
		scores [4]float64
		v      float64 // distinctiveness objective, filled below
	}
	var best []scored
	rootD := s.Root().Display
	for _, a := range cands {
		d, err := engine.Execute(cur.Display, a)
		if err != nil || d.NumRows() < 1 {
			continue
		}
		// Skip no-op filters that keep (almost) the whole display.
		if a.Type == engine.ActionFilter && d.NumRows() >= cur.Display.NumRows() {
			continue
		}
		mctx := &measures.Context{Action: a, Display: d, Parent: cur.Display, Root: rootD}
		var sc scored
		sc.a = a
		for mi, m := range canonical {
			sc.scores[mi] = m.Score(mctx)
		}
		best = append(best, sc)
	}
	if len(best) == 0 {
		return applyFirstExecutable(s, cands, rng)
	}

	// An analyst pursuing a facet prefers actions *distinctively*
	// interesting under it: high percentile rank under the intent's
	// measure within the candidate set, penalized by the strongest rank
	// any other facet assigns (the paper's premise that interesting
	// actions score high on one measure and low-to-medium on the rest).
	// Ranks are scale-free, so the four measures compete fairly.
	var ranks [4][]float64
	for mi := 0; mi < 4; mi++ {
		col := make([]float64, len(best))
		for bi := range best {
			col[bi] = best[bi].scores[mi]
		}
		ranks[mi] = percentileRanks(col)
	}
	for bi := range best {
		maxOther := 0.0
		for mi := 0; mi < 4; mi++ {
			if mi == intentIdx {
				continue
			}
			if r := ranks[mi][bi]; r > maxOther {
				maxOther = r
			}
		}
		best[bi].v = ranks[intentIdx][bi] - 0.7*maxOther
	}

	// Softly greedy: pick among the top three by the objective.
	sort.Slice(best, func(i, j int) bool { return best[i].v > best[j].v })
	top := 3
	if len(best) < top {
		top = len(best)
	}
	weights := []float64{0.72, 0.2, 0.08}[:top]
	choice := best[rng.Choice(weights)]
	_, err := s.Apply(choice.a)
	return err
}

// percentileRanks returns the midrank percentile of every value within the
// slice, in [0, 1].
func percentileRanks(vals []float64) []float64 {
	n := len(vals)
	out := make([]float64, n)
	if n < 2 {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	for i, v := range vals {
		below, equal := 0, 0
		for _, w := range vals {
			switch {
			case w < v:
				below++
			case w == v:
				equal++
			}
		}
		// equal includes v itself.
		out[i] = (float64(below) + 0.5*float64(equal-1)) / float64(n-1)
	}
	return out
}

// applyFirstExecutable tries candidates in random order until one executes.
func applyFirstExecutable(s *session.Session, cands []*engine.Action, rng *stats.RNG) error {
	perm := rng.Perm(len(cands))
	for _, i := range perm {
		if _, err := s.Apply(cands[i]); err == nil {
			return nil
		}
	}
	return fmt.Errorf("simulate: no executable candidate at session %s step %d", s.ID, s.Steps()+1)
}

// sampleLength draws a session length of at least 2 actions with the given
// mean (shifted geometric-ish via an exponential draw).
func sampleLength(mean float64, rng *stats.RNG) int {
	n := 2 + int(rng.ExpFloat64()*(mean-2))
	if n < 2 {
		n = 2
	}
	if n > 14 {
		n = 14
	}
	return n
}
