//go:build race

package sim

// RaceDetector reports whether the test binary runs under the race
// detector. The cycle loop runs ~15x slower there, so the long
// equivalence matrices (goldens, gang-vs-solo, multicore fast path)
// skip under -race, the longest gang and model tests run a shorter
// budget (raceBudget) and the fast-path matrices one member per regime
// (raceSubset): they pin arithmetic, not concurrency, and run in full in
// CI's non-race gates. It is exported for the package's external tests.
const RaceDetector = true
