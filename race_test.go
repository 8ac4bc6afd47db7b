//go:build race

package gaussrange

// raceEnabled reports a -race build, in which sync.Pool drops a share of
// what is put back, so byte ceilings measure the detector.
const raceEnabled = true
