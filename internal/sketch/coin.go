package sketch

import "math/bits"

// Coins. Every random choice a sketch makes after it is constructed —
// a KLL compaction's parity, algorithm R's replacement slot in the
// shared RowSample — is a hash of (the sketch's seed, a lane, the
// stream position the choice is made at), not the next output of a
// generator the sketch owns. A sketch therefore carries no generator
// state: "seeding" one is free, and its future choices are a function
// of what Save writes (seed, count, items). A copy, a Save/Load round
// trip and the original flip the same coins from the same position on,
// so a copy is a continuation of the original, and a profile recovered
// from a snapshot extends to the bytes the live one would have reached.

// golden is 2⁶⁴/φ, the splitmix64 increment.
const golden = 0x9e3779b97f4a7c15

// coin returns the 64 random bits drawn at position pos of lane `lane`
// by the sketch seeded seed: the pos-th output of a splitmix64 stream
// whose start is a mix of (seed, lane). Lanes separate choices that
// share a position (the levels of a KLL compaction pass).
func coin(seed int64, lane, pos uint64) uint64 {
	return mix64(mix64(mix64(uint64(seed)+golden)+lane) + pos*golden)
}

// below maps a coin onto [0, n) by multiply-shift; the bias is below
// n/2⁶⁴.
func below(c, n uint64) uint64 {
	hi, _ := bits.Mul64(c, n)
	return hi
}
