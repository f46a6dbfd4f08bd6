// Command dynpd runs the dynP scheduler as an online resource management
// daemon: a planning-based RMS core speaking newline-delimited JSON over
// TCP. Clients submit jobs, report completions, and query the live
// schedule; the daemon kills jobs whose estimates expire, exactly like the
// CCS system the paper's scheduler was built for.
//
// Two clock modes:
//
//   - virtual (default): time only moves when a client sends
//     {"op":"tick","to":T} — fully deterministic, ideal for scripting
//     and testing.
//   - real time (-timescale N): every wall-clock second advances the
//     virtual clock by N seconds.
//
// With -journal <path> the daemon appends every state-changing event to a
// write-ahead journal before applying it. After a crash (even kill -9),
// restarting on the same journal replays the history and resumes with
// byte-identical state; see DESIGN.md's fault-model section. Recovery is
// bounded-time: periodic checkpoints rotate the journal into segments, and
// -replay-mode fast restores from the newest valid checkpoint instead of
// replaying from genesis.
//
// The server degrades gracefully under overload: -max-conns bounds
// concurrent connections (reads are shed first so mutating operations are
// never starved by read floods), -write-timeout disconnects stalled
// clients, and the health/ready protocol ops report liveness and readiness
// even during journal replay.
//
// -cpuprofile <file> records a CPU profile (runtime/pprof) from startup
// until a graceful shutdown on SIGINT or SIGTERM completes it; read it
// with `go tool pprof`.
//
// Example session (with netcat):
//
//	$ dynpd -procs 64 -scheduler dynP/SJF-preferred &
//	$ nc localhost 7677
//	{"op":"submit","width":8,"estimate":3600}
//	{"ok":true,"job":{"ID":1,...,"State":1},"now":0}
//	{"op":"status"}
//	...
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"dynp"
	"dynp/internal/rms"
	"dynp/internal/vfs"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7677", "TCP listen address")
		addrFile  = flag.String("addr-file", "", "write the bound listen address to this file (for :0 listeners)")
		procs     = flag.Int("procs", 64, "machine size in processors")
		scheduler = flag.String("scheduler", "dynP/SJF-preferred",
			"scheduler: FCFS, SJF, LJF, EASY, dynP/simple, dynP/advanced, dynP/<POLICY>-preferred")
		timescale = flag.Int64("timescale", 0,
			"real-time mode: virtual seconds per wall-clock second (0 = virtual clock via 'tick')")
		journalPath = flag.String("journal", "",
			"write-ahead event journal; an existing journal is replayed on startup, restoring pre-crash state")
		journalKeep = flag.Int("journal-keep", -1,
			"rotated journal segments to retain past the newest checkpoint (-1 = keep all, preserving full-history audit)")
		journalCkpt = flag.Int("journal-checkpoint", 0,
			"cut a checkpoint and rotate the journal every N events (0 = default interval)")
		replayMode = flag.String("replay-mode", "fast",
			"journal recovery: 'fast' restores from the newest valid checkpoint, 'genesis' replays the full history and verifies every checkpoint")
		diskFault = flag.String("disk-fault", "",
			"inject seeded disk faults into the journal (testing): e.g. seed=7,writefail=0.01,short=0.02,bitflip=0,syncfail=0.005,rename=0")
		idleTimeout = flag.Duration("idle-timeout", 0,
			"drop client connections idle longer than this (0 = keep forever)")
		writeTimeout = flag.Duration("write-timeout", 10*time.Second,
			"per-response write deadline; a stalled client is disconnected (0 = none)")
		maxConns = flag.Int("max-conns", 0,
			"connection cap: beyond it reads are shed, beyond twice it connections are refused (0 = unlimited)")
		readyMaxQueue = flag.Int("ready-max-queue", 0,
			"report not-ready when more than this many jobs are waiting (0 = no watermark)")
		quoteWorkers = flag.Int("quote-workers", rms.DefaultQuoteWorkers,
			"concurrent digital-twin simulations for the 'quote' op (0 disables quotes)")
		quoteMax = flag.Int("quote-max", 0,
			"quotes in flight before shedding with busy (0 = 4x -quote-workers, negative sheds all)")
		traceLen = flag.Int("trace", 512,
			"engine event trace: ring-buffer length backing the 'trace' op and the 'metrics' op's planning latencies; not checkpointed, so after a restart it holds the transitions replayed since the newest checkpoint (0 = disabled)")
		cpuProfile = flag.String("cpuprofile", "",
			"write a CPU profile of the daemon's life to this file, completed on graceful shutdown (SIGINT/SIGTERM)")
	)
	flag.Parse()

	// Registered first, so a shutdown signal that arrives during startup
	// or journal replay still ends the daemon gracefully.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	stopProfile := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		fail(err)
		fail(pprof.StartCPUProfile(f))
		stopProfile = func() {
			pprof.StopCPUProfile()
			fail(f.Close())
		}
	}

	spec, err := dynp.ParseSchedulerSpec(*scheduler)
	fail(err)
	sched, err := rms.New(*procs, spec.New(), 0)
	fail(err)
	// The quote service forks twins from the same spec the live driver
	// was built from, so twin decisions replay the live tuner's exactly.
	if *quoteWorkers > 0 {
		fail(sched.EnableQuotes(spec.New))
	}

	// Attach the engine observer before journal replay so the trace
	// holds the transitions replayed since the newest checkpoint. The
	// metrics op's counts are the scheduler's own: checkpoints carry them.
	var trace *rms.EventTrace
	if *traceLen > 0 {
		trace = rms.NewEventTrace(*traceLen)
		sched.AddObserver(trace)
	}

	// Listen before replay: health and ready are served immediately, so
	// orchestrators can distinguish "recovering" from "dead" while a long
	// journal replays. Everything else is refused until SetReady(true).
	server := rms.NewServer(sched, *timescale == 0)
	server.IdleTimeout = *idleTimeout
	server.WriteTimeout = *writeTimeout
	server.MaxConns = *maxConns
	server.ReadyMaxQueue = *readyMaxQueue
	server.QuoteWorkers = *quoteWorkers
	server.QuoteMax = *quoteMax
	server.Trace = trace
	server.SetReady(false)
	bound, err := server.Listen(*addr)
	fail(err)
	if *addrFile != "" {
		fail(os.WriteFile(*addrFile, []byte(bound.String()+"\n"), 0o644))
	}

	if *journalPath != "" {
		fsys := vfs.FS(vfs.OS)
		if *diskFault != "" {
			cfg, err := vfs.ParseFaultConfig(*diskFault)
			fail(err)
			fsys = vfs.NewFaulty(vfs.OS, cfg)
			fmt.Fprintf(os.Stderr, "dynpd: journal disk-fault injection active (%s)\n", *diskFault)
		}
		journal, err := rms.OpenJournalFS(fsys, *journalPath)
		fail(err)
		journal.SetKeep(*journalKeep)
		if *journalCkpt > 0 {
			journal.SetSnapshotEvery(*journalCkpt)
		}
		var replayed int
		switch *replayMode {
		case "fast":
			replayed, err = journal.Replay(sched)
		case "genesis":
			replayed, err = journal.ReplayGenesis(sched)
		default:
			err = fmt.Errorf("unknown -replay-mode %q (want fast or genesis)", *replayMode)
		}
		fail(err)
		if replayed > 0 {
			fmt.Fprintf(os.Stderr, "dynpd: replayed %d events from %s (%s), resuming at t=%d\n",
				replayed, *journalPath, *replayMode, sched.Now())
		}
		fail(sched.SetJournal(journal))
		defer journal.Close()
	}

	server.SetReady(true)
	fmt.Fprintf(os.Stderr, "dynpd: %s scheduling %d processors on %s (clock: %s)\n",
		spec.Name, *procs, bound, clockMode(*timescale))

	stopTicker := make(chan struct{})
	if *timescale > 0 {
		go func() {
			// A replayed journal resumes mid-history: offset the wall
			// clock so time continues from the restored instant instead
			// of trying to advance backwards to zero.
			base := sched.Now()
			start := time.Now()
			ticker := time.NewTicker(250 * time.Millisecond)
			defer ticker.Stop()
			for {
				select {
				case <-stopTicker:
					return
				case <-ticker.C:
					virtual := base + int64(time.Since(start).Seconds()*float64(*timescale))
					if err := sched.Advance(virtual); err != nil {
						fmt.Fprintf(os.Stderr, "dynpd: clock: %v\n", err)
					}
				}
			}
		}()
	}

	<-sigc
	close(stopTicker)
	fail(server.Close())
	stopProfile()
	st := sched.Status()
	fmt.Fprintf(os.Stderr, "dynpd: shut down at t=%d, %d finished, %d running, %d waiting\n",
		st.Now, st.Finished, len(st.Running), len(st.Waiting))
}

func clockMode(scale int64) string {
	if scale == 0 {
		return "virtual, client-driven ticks"
	}
	return fmt.Sprintf("real time x%d", scale)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynpd:", err)
		os.Exit(1)
	}
}
