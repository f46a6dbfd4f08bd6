package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"dynp/internal/stats"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending-sorted sample; nearest rank never interpolates, so every
// reported latency is one that was actually observed.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)) - 1e-9)) // 0.99*100 is 98.99999…, not 99
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentile is the choosing-metrics rule: the highest percentile
// that still has at least ten samples beyond it, capped at p99. Below
// twenty samples no percentile above the median qualifies, and the tail
// degenerates to the median rather than to a single noisy maximum.
func tailPercentile(n int) float64 {
	p := 1 - 10/float64(n)
	if p > 0.99 {
		p = 0.99
	}
	if n < 20 || p < 0.5 {
		p = 0.5
	}
	return p
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the conventional median: of an even-sized sample, the mean
// of the middle two. A two-set workload's run times are bimodal, and
// the nearest-rank p50 would report whichever mode the rank lands in.
func median(v []float64) float64 { return stats.Quantile(sortedCopy(v), 0.5) }

// byQuartile splits values into four equal-count groups by ascending key
// and returns each group's mean. Quartiles of the run's own key
// distribution (rather than fixed key ranges) keep all four cells
// populated on every workload, short-queue and long-queue alike.
func byQuartile(keys []int, values []float64) [4]float64 {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	var out [4]float64
	for q := 0; q < 4; q++ {
		lo, hi := q*len(idx)/4, (q+1)*len(idx)/4
		var s float64
		for _, i := range idx[lo:hi] {
			s += values[i]
		}
		if hi > lo {
			out[q] = s / float64(hi-lo)
		}
	}
	return out
}

// peakRSSMiB reads VmHWM, the resident-set high-water mark, of a process.
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// fsType names the filesystem holding dir, because journal fsync cost —
// a share of every daemon-wire number — depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
