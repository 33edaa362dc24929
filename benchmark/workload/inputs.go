package workload

// Inputs is everything a run hands the program: the dataset and, in
// script order, the CSV body of every ingest POST of one round. Every
// round replays the same bodies against a fresh process.
type Inputs struct {
	// Data is the dataset file: a header line and Shape.Rows records.
	Data []byte
	// Timed are the batches whose acknowledgement is timed (BatchRows
	// records each), Small the ingests that precede a fresh read
	// (SmallBatchRows each).
	Timed, Small [][]byte
	Pairs        []FocusPair
}

// MakeInputs draws a workload's inputs from the seed. The row stream
// continues from the dataset into the batches in the order the script
// posts them.
func MakeInputs(spec Spec, seed int64) *Inputs {
	g := NewGenerator(spec.Shape, seed)
	in := &Inputs{
		Data:  g.CSV(spec.Shape.Rows),
		Pairs: spec.FocusPairs(seed, FocusCount),
	}
	if spec.Loop == LoopExplore {
		return in
	}
	for c := 0; c < spec.Cycles; c++ {
		for b := 0; b < BatchesPerCycle && spec.Loop == LoopStream; b++ {
			in.Timed = append(in.Timed, g.CSV(BatchRows))
		}
		in.Small = append(in.Small, g.CSV(SmallBatchRows))
	}
	return in
}
