package engine

import (
	"sort"

	"dynp/internal/plan"
)

// VictimLastStarted orders the running jobs for termination when a
// capacity failure leaves the machine oversubscribed: the most recently
// started first (ties broken by higher ID first), minimising the amount
// of finished work a capacity failure destroys. It sorts running in place
// and returns it.
func VictimLastStarted(running []plan.Running) []plan.Running {
	sort.Slice(running, func(i, j int) bool {
		if running[i].Start != running[j].Start {
			return running[i].Start > running[j].Start
		}
		return running[i].Job.ID > running[j].Job.ID
	})
	return running
}
