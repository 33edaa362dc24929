package sketch_test

import (
	"foresight/internal/core"
	"foresight/internal/sketch"
)

// FuzzLoadProfile scores what it accepts with the classes whose
// approximate score reads the row sample: none may panic on a store
// LoadProfile lets through.
func init() {
	sketch.ScoreSample = func(p *sketch.DatasetProfile) {
		f := p.Sample()
		if f == nil {
			return
		}
		for _, c := range []core.Class{
			core.NewMonotonicClass(),
			core.NewDependenceClass(0),
			core.NewCategoricalAssociationClass(0),
			core.NewSegmentationClass(0, 0),
			core.NewNonlinearDependenceClass(0),
			core.NewOutliersClass(nil),
			core.NewMultimodalityClass(),
		} {
			for _, attrs := range c.Candidates(f) {
				for _, metric := range c.Metrics() {
					c.ScoreApprox(p, attrs, metric) //nolint:errcheck // only a panic fails
				}
			}
		}
	}
}
