//go:build race

package race

// Enabled reports whether this binary was built with the race detector.
const Enabled = true
