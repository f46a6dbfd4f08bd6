// Journal replay: rebuilding a scheduler from disk after a restart.
//
// Replay is the fast path and the one dynpd uses: it restores the
// newest valid checkpoint and applies only the events journaled behind
// it, so restart time is bounded by the checkpoint interval instead of
// the life of the system. Which checkpoint that is, the journal decides
// once at open (findLadder in journal.go). Checkpoints are redundant
// (the events can always rebuild them) so a corrupt checkpoint record
// is not fatal: the ladder falls back one checkpoint at a time — the
// previous one, then the segments in between — and to genesis as the
// last resort. Events are *not* redundant; a corrupt event record that
// no newer checkpoint covers makes the journal unrecoverable and replay
// refuses, loudly, instead of resurrecting a partial history.
//
// ReplayGenesis is the strict auditor: it reads every segment again,
// replays every event from segment 0 and verifies the rebuilt state
// against every checkpoint it passes. Both paths apply events through
// one loop and produce byte-identical schedulers; the soak and
// equivalence tests hold them to that.
package rms

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
)

// Replay rebuilds scheduler state from the journal into s, which must
// be a virgin scheduler configured identically (capacity, driver, start
// time) to the one that wrote the journal. It restores the newest
// usable checkpoint and applies the events behind it, falling back one
// checkpoint at a time over corrupted ones, down to a full replay from
// genesis. It returns the number of events since genesis the rebuilt
// state folds in. Replay, then SetJournal, then serve.
func (j *Journal) Replay(s *Scheduler) (int, error) {
	return j.replayInto(s, false)
}

// ReplayGenesis rebuilds scheduler state by replaying every event from
// the genesis segment, verifying the rebuilt state against every
// checkpoint on the way — the audit that proves the checkpoints honest.
// It refuses if segment 0 was compacted away or any record is invalid.
func (j *Journal) ReplayGenesis(s *Scheduler) (int, error) {
	return j.replayInto(s, true)
}

func (j *Journal) replayInto(s *Scheduler, genesis bool) (int, error) {
	if err := j.Err(); err != nil {
		return 0, err
	}
	j.mu.Lock()
	if j.appended {
		j.mu.Unlock()
		return 0, fmt.Errorf("rms: journal: cannot replay after appending")
	}
	header, ladder, ladderErr := j.header, j.ladder, j.ladderErr
	j.mu.Unlock()

	if header == nil {
		return 0, nil // fresh, empty journal: nothing to replay
	}

	s.mu.Lock()
	attached := s.jp.Load() != nil
	virgin := s.nextID == 0 && len(s.done) == 0 &&
		len(s.eng.Waiting()) == 0 && len(s.eng.Running()) == 0
	capacity, name, now := s.eng.Capacity(), s.driver.Name(), s.eng.Now()
	s.mu.Unlock()
	if attached {
		return 0, fmt.Errorf("rms: journal: replay into a scheduler that already journals")
	}
	if !virgin {
		return 0, fmt.Errorf("rms: journal: replay into a non-virgin scheduler")
	}
	if header.Capacity != capacity {
		return 0, fmt.Errorf("rms: journal is for capacity %d, scheduler has %d", header.Capacity, capacity)
	}
	if header.Scheduler != name {
		return 0, fmt.Errorf("rms: journal is for scheduler %q, not %q", header.Scheduler, name)
	}
	if header.Start != now {
		return 0, fmt.Errorf("rms: journal starts at %d, scheduler at %d", header.Start, now)
	}

	if genesis {
		return j.replayGenesis(s, ladder[len(ladder)-1])
	}
	if ladderErr != nil {
		return 0, ladderErr
	}
	base := int64(0)
	if rung := ladder[0].ckpt; rung != nil {
		if err := s.restoreCheckpoint(rung); err != nil {
			return 0, err
		}
		base = rung.Events
	}
	return applySegments(s, ladder, base, false)
}

// replayGenesis reads every segment from segment 0 up to the active one
// and replays them all, verifying state against each checkpoint passed.
// Any defect refuses.
func (j *Journal) replayGenesis(s *Scheduler, active *segScan) (int, error) {
	rot, err := j.rotatedSegments()
	if err != nil {
		return 0, err
	}
	segs := make([]*segScan, 0, len(rot)+1)
	for _, seq := range rot {
		sc, err := j.readSegment(seq)
		if err != nil {
			return 0, err
		}
		segs = append(segs, &sc)
	}
	segs = append(segs, active)
	for i, sc := range segs {
		if sc.seq != i {
			return 0, fmt.Errorf("rms: journal: genesis replay needs every segment; segment %d is missing (compacted?)", i)
		}
		if !sc.headerOK {
			return 0, fmt.Errorf("rms: journal: segment %d has no valid header", i)
		}
		if !sc.clean {
			return 0, fmt.Errorf("rms: journal: segment %d has corrupt records", i)
		}
		if sc.badCkpt {
			return 0, fmt.Errorf("rms: journal: segment %d checkpoint record is corrupt", i)
		}
		if g := segs[0].header; sc.header.Version != g.Version || sc.header.Capacity != g.Capacity ||
			sc.header.Scheduler != g.Scheduler || sc.header.Start != g.Start {
			return 0, fmt.Errorf("rms: journal: segment %d header disagrees with genesis configuration", i)
		}
	}
	return applySegments(s, segs, 0, true)
}

// applySegments applies the events of segs, in order, to a scheduler
// whose state folds in the first base events since genesis, and returns
// the events the state then folds in. With verify, each head checkpoint
// is checked against the state rebuilt so far before its segment's
// events apply.
func applySegments(s *Scheduler, segs []*segScan, base int64, verify bool) (int, error) {
	applied := base
	for _, sc := range segs {
		if verify && sc.ckpt != nil {
			if err := verifyCheckpoint(s, sc.ckpt, applied); err != nil {
				return int(applied), err
			}
		}
		for i := range sc.events {
			// Refusals are replayed like any other event: a refused event
			// journaled (a deliver batch refused after its clock move)
			// reproduces the original state exactly. Only an op no write
			// knows is an error.
			if _, err := s.apply(&sc.events[i]); errors.Is(err, errUnknownOp) {
				return int(applied), fmt.Errorf("rms: journal: unknown op %q", sc.events[i].Op)
			}
			applied++
		}
	}
	return int(applied), nil
}

// verifyCheckpoint compares the replayed state against a journaled
// checkpoint, value for value: the transition and decision counts as much
// as the jobs, the plan and the driver's decision state.
func verifyCheckpoint(s *Scheduler, want *checkpointState, applied int64) error {
	if want.Events != applied {
		return fmt.Errorf("rms: journal: checkpoint claims %d events but replay applied %d", want.Events, applied)
	}
	s.mu.Lock()
	got, err := s.captureCheckpointLocked(applied)
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("rms: journal: checkpoint verification: %w", err)
	}
	if got.Now != want.Now || got.NextID != want.NextID || got.Failed != want.Failed ||
		!slices.Equal(got.Waiting, want.Waiting) || !slices.Equal(got.Running, want.Running) ||
		!slices.Equal(got.Done, want.Done) || !bytes.Equal(got.Driver, want.Driver) ||
		!maps.Equal(got.Transitions, want.Transitions) {
		return fmt.Errorf("rms: journal: replayed state diverges from the checkpoint after %d events — the journal was tampered with or the scheduler is not deterministic", applied)
	}
	return nil
}
