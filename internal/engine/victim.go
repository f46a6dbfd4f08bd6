package engine

import (
	"cmp"
	"slices"

	"dynp/internal/plan"
)

// victimLastStarted orders the running jobs for termination when a
// capacity failure leaves the machine oversubscribed: the most recently
// started first (ties broken by higher ID first), minimising the amount
// of finished work a capacity failure destroys. It sorts running in place
// and returns it.
func victimLastStarted(running []plan.Running) []plan.Running {
	slices.SortFunc(running, func(a, b plan.Running) int {
		return cmp.Or(cmp.Compare(b.Start, a.Start), cmp.Compare(b.Job.ID, a.Job.ID))
	})
	return running
}
