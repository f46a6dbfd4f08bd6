// Package benchgate holds helpers shared by the benchmark gate commands
// (cmd/benchrecover, cmd/benchquote) that compare fresh
// measurements against committed baseline snapshots.
package benchgate

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
)

// PinProcs makes a -check re-measurement comparable with its baseline by
// pinning runtime.GOMAXPROCS to the value the baseline snapshot was
// recorded at. Without the pin, a 4-core CI runner checking a snapshot
// recorded at GOMAXPROCS=1 measures a different machine shape than the
// baseline did, and the gate fails (or worse, passes) on scheduler noise
// instead of regressions.
//
// A GOMAXPROCS environment variable that contradicts the baseline is an
// explicit operator request PinProcs cannot honour and pin at the same
// time, so it returns an error naming both values instead of silently
// overriding either. A baseline that predates the gomaxprocs field (0)
// is rejected too: re-record it rather than guess.
func PinProcs(tool string, baseProcs int) error {
	if baseProcs <= 0 {
		return fmt.Errorf("baseline snapshot records no gomaxprocs; re-record it with -out before gating")
	}
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 1 {
			return fmt.Errorf("invalid GOMAXPROCS=%q in environment", env)
		}
		if n != baseProcs {
			return fmt.Errorf("GOMAXPROCS=%d conflicts with the baseline recorded at gomaxprocs %d; "+
				"unset GOMAXPROCS, or re-record the baseline at this setting", n, baseProcs)
		}
	}
	if cur := runtime.GOMAXPROCS(0); cur != baseProcs {
		fmt.Fprintf(os.Stderr, "%s: pinning GOMAXPROCS %d -> %d to match the baseline\n", tool, cur, baseProcs)
		runtime.GOMAXPROCS(baseProcs)
	}
	return nil
}
