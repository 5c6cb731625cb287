//go:build race

package engine

// raceEnabled reports whether this binary was built with the race detector.
// Large-scale tests consult it: the detector refuses to track more than 8128
// simultaneously alive goroutines (and slows everything), so soaks scale
// themselves down under -race.
const raceEnabled = true
