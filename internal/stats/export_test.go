package stats

// The pre-rewrite kernels, exported to the external test package that
// scores whole datasets through both generations of code.
var (
	SpearmanOracle        = spearmanOracle
	PearsonOracle         = pearsonOracle
	FitLineOracle         = fitLineOracle
	GroupSilhouetteOracle = groupSilhouetteOracle
	// The silhouette under the distance it was defined with before:
	// math.Hypot, no rescale.
	GroupSilhouetteHypotOracle = groupSilhouetteHypotOracle
)

// EachSilhouetteCase scores every hand-built silhouette case through the
// kernel and through the Hypot oracle.
func EachSilhouetteCase(visit func(name string, got, hypot float64)) {
	for _, tc := range silhouetteCases {
		visit(tc.name, groupSilhouette(tc.pts, tc.codes, tc.levels), groupSilhouetteHypotOracle(tc.pts, tc.codes, tc.levels))
	}
}
