// Command stress drives the differential-testing harness: it draws random
// scenarios from the full configuration lattice (dimension, balance
// condition, brick shape, periodicity, masks, rank count, partition skew,
// refinement pattern), runs the parallel one-pass balance under the
// simulated communicator, audits every distributed invariant, and diffs the
// result octant-for-octant against the serial RefBalance oracle.
//
// With -chaos it becomes a chaos sweep: each passing scenario is re-run on
// a seeded fault-injecting transport (message drops, duplication,
// delay/reordering, per-rank stalls) and must produce the identical
// balanced forest — same checksum as the perfect-transport run, same
// octants as the oracle.  With -chaos-canary the reliable-delivery layer
// is switched off under the same faults, and the sweep must FAIL: a
// passing canary means lost messages went unnoticed.
//
// On a failure it shrinks the scenario to a smaller one that still fails
// and prints both the replay command and a ready-to-paste Go test skeleton.
//
// Examples:
//
//	stress -seconds 30             # time-boxed sweep (CI default)
//	stress -scenarios 500          # fixed number of scenarios
//	stress -seed 7 -scenarios 100  # deterministic band of seeds
//	stress -replay 123456          # re-run one failing seed verbatim
//	stress -seconds 30 -chaos 1    # chaos sweep: perfect vs chaos vs oracle
//	stress -replay 42 -chaos 1     # replay one seed under the same chaos
//	stress -chaos-canary -scenarios 3  # lost-message canary; must fail
//	stress -fault 1 -seconds 5     # widen the preclusion test; must fail
//	stress -seconds 30 -crash 1    # crash sweep: kill+recover vs fault-free
//	stress -crash-canary -scenarios 3  # unrecoverable-kill canary; must fail
//	stress -replay 42 -crash-rank 1 -crash-phase query  # replay one kill point
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/comm"
	"repro/internal/forest"
	"repro/internal/harness"
	"repro/internal/otest"
)

// chaosSeedFor derives the per-scenario chaos seed from the sweep's chaos
// base, so one printed pair (-seed, -chaos) replays the whole sweep.
func chaosSeedFor(chaosBase uint64, seed int64) uint64 {
	return otest.SplitMix64(chaosBase^uint64(seed)) | 1 // non-zero
}

// crashSeedFor is chaosSeedFor for the crash sweep, salted differently so
// running both sweeps off the same base does not correlate the kill point
// with the chaos fates.
func crashSeedFor(crashBase uint64, seed int64) uint64 {
	return otest.SplitMix64(crashBase^uint64(seed)^0x6372617368) | 1 // non-zero
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("stress: ")
	var (
		seconds   = flag.Int("seconds", 30, "time budget in seconds (0 = use -scenarios only)")
		scenarios = flag.Int("scenarios", 0, "stop after this many scenarios (0 = time budget only)")
		seed      = flag.Int64("seed", 1, "first scenario seed; scenario i uses seed+i")
		replay    = flag.Int64("replay", 0, "replay exactly one scenario with this seed, then exit")
		fault     = flag.Int("fault", 0, "inject a balance bug: widen the preclusion test by this many levels")
		chaos     = flag.Uint64("chaos", 0, "chaos sweep: re-run every scenario under seeded transport faults derived from this base seed")
		canary    = flag.Bool("chaos-canary", false, "run scenarios under chaos with reliable delivery DISABLED; the sweep must fail")
		crash     = flag.Uint64("crash", 0, "crash sweep: re-run every scenario with a seeded rank-kill plus checkpoint recovery derived from this base seed")
		crashCan  = flag.Bool("crash-canary", false, "run scenarios with a seeded rank-kill and checkpointing DISABLED; the sweep must fail")
		crashRank = flag.Int("crash-rank", 0, "with -crash-phase: rank to kill (replay pinning)")
		crashPh   = flag.String("crash-phase", "", "pin the kill to this pipeline phase instead of deriving it from -crash")
		crashOps  = flag.Int("crash-ops", 0, "with -crash-phase: comm operations completed in the phase before the kill")
		reportDir = flag.String("report-dir", "", "write the structured FailureReport of each failing scenario as JSON into this directory")
		shrinkBud = flag.Int("shrink", 80, "run budget for shrinking a failing scenario")
		workersF  = flag.Int("workers", -1, "pin the rank-local worker pool size for every scenario (-1 = scenario-chosen)")
		codecF    = flag.String("codec", "", "pin the wire codec for every scenario: v0 or v1 (default scenario-chosen)")
		verbose   = flag.Bool("v", false, "print every scenario as it runs")

		// Multi-process mode (net.go): run one pinned scenario as a world
		// spanning several OS processes over sockets and compare its
		// checksum against the in-process run.
		transport = flag.String("transport", "inproc", "world transport: inproc, tcp or unix (tcp/unix = multi-process mode)")
		procsF    = flag.Int("procs", 3, "with -transport tcp|unix: OS process count, including this leader")
		listenF   = flag.String("listen", "", "with -transport tcp|unix: leader rendezvous address (default loopback port 0 / temp-dir socket)")
		joinF     = flag.String("join", "", "worker mode: join the leader rendezvous at this address instead of leading")
		spanF     = flag.String("span", "", "worker mode: rank span to host, as lo-hi")
		octdF     = flag.String("octd", "", "with -transport tcp|unix: worker binary to spawn (default: this binary in -join mode)")
		netRanks  = flag.Int("net-ranks", 13, "with -transport tcp|unix: pin the scenario's world size (0 = scenario-chosen)")
		netChaos  = flag.Uint("net-chaos", 0, "with -transport tcp|unix: socket-layer frame-drop rate in parts per million")
	)
	flag.Parse()

	if *joinF != "" {
		os.Exit(runNetWorker(*transport, *joinF, *spanF))
	}

	// pin applies the -workers override; replay commands printed below
	// carry the same flag so a pinned failure stays reproducible.
	pinCodec := forest.WireV0
	if *codecF != "" {
		var err error
		pinCodec, err = forest.ParseWireCodec(*codecF)
		if err != nil {
			log.Fatal(err)
		}
	}
	pin := func(sc harness.Scenario) harness.Scenario {
		if *workersF >= 0 {
			sc.Workers = *workersF
		}
		if *codecF != "" {
			sc.Codec = pinCodec
		}
		return sc.Normalized()
	}
	pinFlag := ""
	if *workersF >= 0 {
		pinFlag = fmt.Sprintf(" -workers %d", *workersF)
	}
	if *codecF != "" {
		pinFlag += fmt.Sprintf(" -codec %v", pinCodec)
	}

	if *transport != "inproc" {
		netSeed := *seed
		if *replay != 0 {
			netSeed = *replay
		}
		os.Exit(runNetLeader(netLaunch{
			network: *transport, procs: *procsF, listen: *listenF, octd: *octdF,
			ranks: *netRanks, chaosPPM: *netChaos, seed: netSeed, pin: pin,
		}))
	}

	forest.PreclusionFaultLevels = *fault
	if *fault != 0 {
		log.Printf("fault injection: preclusion widened by %d level(s); expecting failures", *fault)
	}

	if *replay != 0 {
		sc := pin(harness.FromSeed(*replay))
		if *chaos != 0 {
			sc = sc.WithChaos(chaosSeedFor(*chaos, *replay))
		}
		sc.ChaosCanary = *canary
		if *crash != 0 {
			sc = sc.WithCrash(crashSeedFor(*crash, *replay))
		}
		if *crashPh != "" {
			sc.CrashRank, sc.CrashPhase, sc.CrashOps = *crashRank, *crashPh, *crashOps
		}
		if sc.Crashing() {
			sc.CrashCanary = *crashCan
		}
		log.Printf("replaying %v", sc)
		res := harness.Run(sc)
		if res.Err != nil {
			log.Printf("FAIL: %v", res.Err)
			writeFailureReport(*reportDir, sc, res)
			os.Exit(1)
		}
		log.Printf("ok: %d trees, %d -> %d leaves, checksum %#x", res.Trees, res.LeavesBefore, res.LeavesAfter, res.Checksum)
		return
	}

	if *canary {
		runCanary(*seed, *scenarios, *chaos)
		return
	}
	if *crashCan {
		runCrashCanary(*seed, *scenarios, *crash)
		return
	}

	if *seconds <= 0 && *scenarios <= 0 {
		log.Fatal("nothing to do: set -seconds and/or -scenarios")
	}
	deadline := time.Time{}
	if *seconds > 0 {
		deadline = time.Now().Add(time.Duration(*seconds) * time.Second)
	}

	var (
		ran, failed int
		leaves      int64
		maxRanks    int
		start       = time.Now()
	)
	for s := *seed; ; s++ {
		if *scenarios > 0 && ran >= *scenarios {
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		sc := pin(harness.FromSeed(s))
		if *verbose {
			log.Printf("seed %d: %v", s, sc)
		}
		res := harness.Run(sc)
		ran++
		leaves += res.LeavesAfter
		if sc.Ranks > maxRanks {
			maxRanks = sc.Ranks
		}
		if res.Err == nil && *chaos != 0 {
			// Chaos leg: same scenario, faulty transport.  The forest
			// must be identical — the oracle diff inside Run catches
			// octant-level drift, and the checksum cross-check catches
			// any divergence from the perfect-transport leg directly.
			csc := sc.WithChaos(chaosSeedFor(*chaos, s))
			cres := harness.Run(csc)
			if cres.Err == nil && cres.Checksum != res.Checksum {
				cres.Err = fmt.Errorf("chaos run diverged from perfect transport: checksum %#x != %#x",
					cres.Checksum, res.Checksum)
			}
			if cres.Err != nil {
				failed++
				log.Printf("FAIL seed %d (chaos %d): %v", s, csc.ChaosSeed, cres.Err)
				writeFailureReport(*reportDir, csc, cres)
				small, smallRes, attempts := harness.Shrink(csc, *shrinkBud)
				log.Printf("shrunk after %d runs to: %v", attempts, small)
				log.Printf("still failing with: %v", smallRes.Err)
				log.Printf("replay with: go run ./cmd/stress -replay %d -chaos %d%s", small.Seed, *chaos, pinFlag)
				fmt.Fprintf(os.Stderr, "\n%s\n", harness.ReproSource(small, smallRes.Err))
				continue
			}
		}
		if res.Err == nil && *crash != 0 {
			// Crash leg: same scenario, one seeded rank-kill, checkpoint
			// recovery.  The recovered forest must be bit-identical — the
			// oracle diff inside Run catches octant-level drift, and the
			// checksum cross-check catches divergence from the fault-free
			// leg directly.
			ksc := sc.WithCrash(crashSeedFor(*crash, s))
			kres := harness.Run(ksc)
			if kres.Err == nil && kres.Checksum != res.Checksum {
				kres.Err = fmt.Errorf("crash-recovery run diverged from the fault-free run: checksum %#x != %#x",
					kres.Checksum, res.Checksum)
			}
			if kres.Err != nil {
				failed++
				log.Printf("FAIL seed %d (crash %d): %v", s, ksc.CrashSeed, kres.Err)
				writeFailureReport(*reportDir, ksc, kres)
				small, smallRes, attempts := harness.Shrink(ksc, *shrinkBud)
				log.Printf("shrunk after %d runs to: %v", attempts, small)
				log.Printf("still failing with: %v", smallRes.Err)
				log.Printf("replay with: go run ./cmd/stress -replay %d%s%s", small.Seed, crashPinFlags(small), pinFlag)
				fmt.Fprintf(os.Stderr, "\n%s\n", harness.ReproSource(small, smallRes.Err))
				continue
			}
		}
		if res.Err == nil {
			continue
		}
		failed++
		log.Printf("FAIL seed %d: %v", s, res.Err)
		writeFailureReport(*reportDir, sc, res)
		small, smallRes, attempts := harness.Shrink(sc, *shrinkBud)
		log.Printf("shrunk after %d runs to: %v", attempts, small)
		log.Printf("still failing with: %v", smallRes.Err)
		log.Printf("replay with: go run ./cmd/stress -replay %d%s", small.Seed, pinFlag)
		fmt.Fprintf(os.Stderr, "\n%s\n", harness.ReproSource(small, smallRes.Err))
		if *fault != 0 {
			break // fault mode only needs to prove the bug is catchable
		}
	}

	elapsed := time.Since(start).Round(time.Millisecond)
	mode := ""
	if *chaos != 0 {
		mode = fmt.Sprintf(" (chaos base %d, each scenario run twice)", *chaos)
	}
	if *crash != 0 {
		mode += fmt.Sprintf(" (crash base %d, each scenario re-run with a kill)", *crash)
	}
	log.Printf("%d scenarios in %v (%.1f/s), %d balanced leaves, up to %d ranks, %d failure(s)%s",
		ran, elapsed, float64(ran)/elapsed.Seconds(), leaves, maxRanks, failed, mode)
	if *fault != 0 {
		// Under fault injection the exit status is inverted: the run
		// succeeds only if the harness caught the planted bug.
		if failed == 0 {
			log.Printf("injected fault was NOT caught — the harness has lost its teeth")
			os.Exit(2)
		}
		log.Printf("injected fault caught, as it should be")
		return
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runCanary executes the lost-message canary: scenarios run under chaos
// with the reliable-delivery protocol disabled, so injected drops become
// real message loss.  The exit status is inverted — the canary passes only
// if at least one scenario fails (deadlock caught by the watchdog, or an
// oracle mismatch).  Single-rank scenarios are skipped: they exchange no
// messages, so nothing can be lost.
func runCanary(seed int64, scenarios int, chaosBase uint64) {
	if scenarios <= 0 {
		scenarios = 3
	}
	if chaosBase == 0 {
		chaosBase = 1
	}
	var ran, failed int
	log.Printf("canary: %d multi-rank scenarios under chaos with reliable delivery DISABLED; failures are the goal", scenarios)
	for s := seed; ran < scenarios; s++ {
		sc := harness.FromSeed(s)
		if sc.Ranks < 2 {
			continue
		}
		sc = sc.WithChaos(chaosSeedFor(chaosBase, s))
		sc.ChaosCanary = true
		res := harness.Run(sc)
		ran++
		if res.Err != nil {
			failed++
			log.Printf("seed %d: lost message caught, as it should be: %.200s", s, res.Err.Error())
		} else {
			log.Printf("seed %d: survived without reliable delivery (%v)", s, sc)
		}
	}
	if failed == 0 {
		log.Printf("NO scenario failed without reliable delivery — the chaos canary is dead")
		os.Exit(2)
	}
	log.Printf("canary ok: %d/%d scenarios failed without reliable delivery", failed, ran)
}

// runCrashCanary executes the unrecoverable-kill canary: scenarios run
// with a seeded rank-kill and NO checkpoint store, so the kill cannot be
// recovered.  The exit status is inverted — the canary passes only if
// every scenario fails with the typed rank-death error; a surviving
// scenario means the crash injector silently stopped firing.
func runCrashCanary(seed int64, scenarios int, crashBase uint64) {
	if scenarios <= 0 {
		scenarios = 3
	}
	if crashBase == 0 {
		crashBase = 1
	}
	var ran, failed int
	log.Printf("crash canary: %d scenarios with a seeded rank-kill and checkpointing DISABLED; failures are the goal", scenarios)
	for s := seed; ran < scenarios; s++ {
		sc := harness.FromSeed(s)
		sc = sc.WithCrash(crashSeedFor(crashBase, s))
		sc.CrashCanary = true
		res := harness.Run(sc)
		ran++
		if res.Err != nil {
			failed++
			log.Printf("seed %d: kill was fatal without checkpoints, as it should be: %.200s", s, res.Err.Error())
		} else {
			log.Printf("seed %d: survived an unrecoverable kill (%v)", s, sc)
		}
	}
	if failed < ran {
		log.Printf("%d/%d scenarios survived an unrecoverable kill — the crash canary is dead", ran-failed, ran)
		os.Exit(2)
	}
	log.Printf("crash canary ok: %d/%d kills were fatal without checkpoints", failed, ran)
}

// crashPinFlags renders the explicit kill point of a crash scenario as
// replay flags, so the replayed kill lands on the same rank, phase and op
// count even if the shrunken scenario's rank count changed the seeded
// derivation.
func crashPinFlags(sc harness.Scenario) string {
	if !sc.Crashing() {
		return ""
	}
	r, ph, ops := sc.CrashPlan()
	return fmt.Sprintf(" -crash-rank %d -crash-phase %s -crash-ops %d", r, ph, ops)
}

// writeFailureReport persists one failing scenario's diagnostics as a JSON
// artifact: the scenario, the error, and — when the world captured one —
// the structured FailureReport (per-rank phase/op/blocked state, dead
// marks, mailbox contents, unacked channels) plus its human-readable
// rendering.  CI uploads the directory on failure.
func writeFailureReport(dir string, sc harness.Scenario, res harness.Result) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Printf("report-dir: %v", err)
		return
	}
	artifact := struct {
		Seed     int64               `json:"seed"`
		Scenario string              `json:"scenario"`
		Error    string              `json:"error"`
		Kills    int64               `json:"kills,omitempty"`
		Respawns int64               `json:"respawns,omitempty"`
		Replays  int                 `json:"replays,omitempty"`
		Report   *comm.FailureReport `json:"report,omitempty"`
		Rendered string              `json:"rendered,omitempty"`
	}{Seed: sc.Seed, Scenario: sc.String(), Kills: res.Kills, Respawns: res.Respawns, Replays: res.Replays, Report: res.Failure}
	if res.Err != nil {
		artifact.Error = res.Err.Error()
	}
	if res.Failure != nil {
		artifact.Rendered = res.Failure.String()
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		log.Printf("report-dir: %v", err)
		return
	}
	name := fmt.Sprintf("failure-seed%d.json", sc.Seed)
	if sc.Seed < 0 {
		name = fmt.Sprintf("failure-seedneg%d.json", -sc.Seed)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Printf("report-dir: %v", err)
		return
	}
	log.Printf("failure report written to %s", path)
}
