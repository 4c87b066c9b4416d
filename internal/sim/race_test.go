//go:build race

package sim_test

// raceDetector reports whether the test binary runs under the race
// detector. The cycle loop runs ~15x slower there, so the long
// equivalence matrices (goldens, gang-vs-solo, multicore fast path)
// skip under -race: they pin arithmetic, not concurrency, and run in
// CI's non-race gates.
const raceDetector = true
