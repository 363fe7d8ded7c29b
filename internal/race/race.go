//go:build race

// Package race reports whether the race detector is active, so tests can
// skip allocation-count assertions: its instrumentation allocates and
// makes sync.Pool drop items at random.
package race

// Enabled is true when the program was built with -race.
const Enabled = true
