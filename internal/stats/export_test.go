package stats

// The pre-rewrite kernels, exported to the external test package that
// scores whole datasets through both generations of code.
var (
	SpearmanOracle        = spearmanOracle
	PearsonOracle         = pearsonOracle
	FitLineOracle         = fitLineOracle
	GroupSilhouetteOracle = groupSilhouetteOracle
)
