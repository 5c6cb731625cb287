//go:build !race

// Package race tells tests whether the race detector is on. Soaks scale
// themselves down under it — it refuses to track more than 8128
// simultaneously alive goroutines and slows everything — and allocation
// bounds are skipped, because its instrumentation allocates.
package race

// Enabled reports whether this binary was built with the race detector.
const Enabled = false
