// Package sketch implements the sketching substrate of Foresight
// (paper §3): lossy, single-pass, mergeable summaries that make
// insight-metric computation fast enough for interactive exploration.
//
// Implemented sketches:
//
//   - Moments: exact first four moments via running sums (the paper's
//     fast path for dispersion/skew/kurtosis) — re-exported from
//     internal/stats.
//   - KLL: quantile sketch with uniform rank-error guarantees.
//   - SpaceSaving: frequent-items sketch (heavy hitters).
//   - KMV: k-minimum-values distinct-count sketch.
//   - Reservoir: uniform random sample of a stream.
//   - Hyperplane: random hyperplane (SimHash) sketch; the Hamming
//     distance between two column sketches yields an unbiased
//     estimator cos(πH/k) of the Pearson correlation (paper's worked
//     example, after Charikar 2002).
//   - Projection: random (Johnson–Lindenstrauss) projection sketch;
//     inner products of projections estimate covariances.
//   - Entropy estimation by *composing* SpaceSaving + KMV (paper §3
//     emphasizes sketch composability): exact contribution from the
//     heavy hitters, maximum-entropy (uniform) model for the tail.
//
// All sketches are deterministic given their seed, are built in one
// pass, and support Merge with another sketch of the same shape, so
// per-partition sketches can be combined (the composability property
// the paper exploits).
package sketch

import (
	"errors"

	"foresight/internal/stats"
)

// Moments is the running-sums moment sketch: exact mean, variance,
// skewness and kurtosis in one pass, mergeable across partitions.
type Moments = stats.Moments

// ErrShapeMismatch is returned by Merge when two sketches were built
// with incompatible parameters (different widths, seeds, or capacity).
var ErrShapeMismatch = errors.New("sketch: shape mismatch in merge")
