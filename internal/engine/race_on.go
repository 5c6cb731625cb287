//go:build race

package engine

// raceEnabled reports whether this binary was built with the race detector.
// Large-scale tests consult it: the detector refuses to track more than 8128
// simultaneously alive goroutines, so soaks that would exceed that budget
// (client goroutines, and the chain goroutines of sessions whose plan is not
// frame-native) scale themselves down under -race.
const raceEnabled = true
