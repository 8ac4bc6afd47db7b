//go:build race

package client

// raceEnabled reports a -race build, in which sync.Pool drops a share of
// what is put back, so allocation ceilings measure the detector.
const raceEnabled = true
