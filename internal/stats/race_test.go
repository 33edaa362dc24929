//go:build race

package stats

// raceEnabled: the race detector's sync.Pool drops a quarter of what is
// put back, so pooled memory cannot be pinned by an allocation count.
const raceEnabled = true
