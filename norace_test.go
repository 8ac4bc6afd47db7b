//go:build !race

package gaussrange

const raceEnabled = false
