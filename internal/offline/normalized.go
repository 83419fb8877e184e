package offline

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/faults"
	"repro/internal/measures"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// mNormFits counts per-measure normalizer fits; each fit's duration lands
// in the per-measure "offline.normalize.fit[<measure>]" histogram (fits
// are once-per-analysis, so the clock reads are not hot-path).
// mNormZOnly counts fits that took the z-score-only degradation rung
// (identity transform instead of a fitted Box-Cox λ) because the series
// was degenerate — constant, non-finite, un-fittable — or a fault was
// injected at the fit site.
var (
	mNormFits  = obs.C("offline.normalize.fits")
	mNormZOnly = obs.C("offline.normalize.zscore_fallbacks")
)

// MeasureNorm holds the fitted Algorithm-2 parameters of one measure:
// the Box-Cox transformation (λ and the positivity shift) and the mean and
// standard deviation of the transformed training scores.
type MeasureNorm struct {
	BoxCox stats.BoxCoxParams
	Mean   float64
	Std    float64
}

// Relative standardizes one raw score: Box-Cox transform, then z-score.
func (mn MeasureNorm) Relative(raw float64) float64 {
	return stats.ZScore(mn.BoxCox.Apply(raw), mn.Mean, mn.Std)
}

// Normalizer is the preprocessing product of Algorithm 2 (the PreProcess
// function, lines 1-8): per-measure Box-Cox parameters and moments, fitted
// on the score distribution of the whole session log.
type Normalizer struct {
	// Params maps measure name -> fitted normalization.
	Params map[string]MeasureNorm
	// FitDuration records how long the preprocessing took (part of the
	// Normalized method's "calc relative scores" budget in Table 3).
	FitDuration time.Duration
}

// FitNormalizer runs the preprocessing over the raw scores of all recorded
// actions. Each measure's score series is shifted positive, Box-Cox
// transformed with an MLE-estimated λ, and its transformed mean/std stored.
//
// The per-measure Box-Cox MLE fits are independent, so they spread across
// workers (1 forces the sequential path). Fitted parameters are a pure
// function of each measure's own series, so results are bit-identical at
// every width. A canceled ctx (nil never cancels) stops the fan-out
// between measure fits and returns a typed pipeline error for the
// "offline.normalize" stage.
func FitNormalizer(ctx context.Context, msrs []measures.Measure, nodes []*NodeScores, workers int) (*Normalizer, error) {
	t0 := time.Now()
	n := &Normalizer{Params: make(map[string]MeasureNorm, len(msrs))}
	fits := make([]MeasureNorm, len(msrs))
	errs := make([]error, len(msrs))
	done, ferr := parallel.ForEachN(ctx, len(msrs), workers, func(i int) {
		m := msrs[i]
		series := make([]float64, 0, len(nodes))
		for _, ns := range nodes {
			if v, ok := ns.Raw[m.Name()]; ok {
				series = append(series, v)
			}
		}
		tFit := time.Now()
		fits[i], errs[i] = fitOneGuarded(ctx, m.Name(), series)
		mNormFits.Inc()
		obs.H("offline.normalize.fit[" + m.Name() + "]").ObserveSince(tFit)
	})
	if ferr != nil {
		return nil, pipeline.Wrap("offline.normalize", done, len(msrs), ferr)
	}
	for i, m := range msrs {
		if errs[i] != nil {
			return nil, fmt.Errorf("offline: normalize %s: %w", m.Name(), errs[i])
		}
		n.Params[m.Name()] = fits[i]
	}
	n.FitDuration = time.Since(t0)
	return n, nil
}

// fitOneGuarded wraps fitOne with the normalize.fit fault probe: an
// injected error or panic at this site retries, and on exhaustion the fit
// degrades to the z-score-only rung instead of failing the analysis.
func fitOneGuarded(ctx context.Context, name string, series []float64) (MeasureNorm, error) {
	if !faults.Enabled() {
		return fitOne(series)
	}
	var mn MeasureNorm
	var fitErr error
	err := faults.Guard(ctx, faults.SiteNormalizeFit, name, func() error {
		mn, fitErr = fitOne(series)
		return nil
	})
	if err != nil {
		if pipeline.Canceled(err) {
			return MeasureNorm{}, err
		}
		// Retries exhausted: z-score-only rung over the raw series.
		mNormZOnly.Inc()
		return zScoreOnly(series), nil
	}
	return mn, fitErr
}

// zScoreOnly builds the degradation-rung normalization for a series the
// Box-Cox fit cannot (or was not allowed to) handle: identity transform,
// moments over the finite observations only. With no finite observations
// Std stays 0, so every relative score collapses to the "no signal" z=0.
func zScoreOnly(series []float64) MeasureNorm {
	finite := series
	for _, v := range series {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = make([]float64, 0, len(series))
			for _, w := range series {
				if !math.IsNaN(w) && !math.IsInf(w, 0) {
					finite = append(finite, w)
				}
			}
			break
		}
	}
	return MeasureNorm{
		BoxCox: stats.BoxCoxParams{Lambda: 1},
		Mean:   stats.Mean(finite),
		Std:    stats.StdDev(finite),
	}
}

func fitOne(series []float64) (MeasureNorm, error) {
	if len(series) == 0 {
		return MeasureNorm{BoxCox: stats.BoxCoxParams{Lambda: 1}, Std: 0}, nil
	}
	transformed, params, err := stats.BoxCoxTransform(series)
	if err != nil {
		// Degenerate series — constant, or containing NaN/±Inf — cannot
		// carry a fitted λ: take the z-score-only rung (identity
		// transform, moments over the finite observations). Constant
		// all-finite series keep their historical behavior bit-for-bit
		// (Std 0 → z 0); non-finite series previously poisoned the
		// moments to NaN, which this guards against.
		mNormZOnly.Inc()
		return zScoreOnly(series), nil
	}
	return MeasureNorm{
		BoxCox: params,
		Mean:   stats.Mean(transformed),
		Std:    stats.StdDev(transformed),
	}, nil
}

// Apply fills dst with the standardized (relative) score of every measure
// present in raw.
func (n *Normalizer) Apply(raw map[string]float64, dst map[string]float64) {
	for name, v := range raw {
		mn, ok := n.Params[name]
		if !ok {
			continue
		}
		dst[name] = mn.Relative(v)
	}
}

// RelativeOne standardizes a single (measure, score) pair, for online use
// on actions outside the training log.
func (n *Normalizer) RelativeOne(measureName string, raw float64) (float64, error) {
	mn, ok := n.Params[measureName]
	if !ok {
		return 0, fmt.Errorf("offline: normalizer has no parameters for measure %q", measureName)
	}
	return mn.Relative(raw), nil
}
