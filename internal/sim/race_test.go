//go:build race

package sim

// raceEnabled: under the race detector sync.Pool drops a share of what
// it is given, so allocation counts say nothing about the planner.
const raceEnabled = true
