package workload

import (
	"os"

	"dynp/internal/job"
	"dynp/internal/rng"
	"dynp/internal/swf"
)

// Load returns the job set a command runs. When swfPath is set it reads
// that SWF file, keeps at most jobs accepted jobs (0 keeps all) and
// ignores model; otherwise it generates jobs jobs from the named trace
// model on the stream rng.New(seed).
func Load(swfPath, model string, jobs int, seed uint64) (*job.Set, error) {
	if swfPath != "" {
		f, err := os.Open(swfPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return swf.Read(f, swf.ReadOptions{Name: swfPath, MaxJobs: jobs})
	}
	m, err := ByName(model)
	if err != nil {
		return nil, err
	}
	return m.Generate(jobs, rng.New(seed))
}
