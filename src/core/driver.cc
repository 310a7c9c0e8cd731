#include "core/driver.hh"

#include "core/policies.hh"
#include "support/log.hh"

namespace txrace::core {

namespace {

/**
 * ProfLoopcut's offline profiling run on a "representative input"
 * (perturbed seed): learn thresholds the Dyn way and keep only the
 * table. Its cost is not part of the measured run, as in the paper.
 * Skipped when the table provably ends empty (see runProgram); @p info
 * records whether it ran and how it ended.
 */
LoopCutTable
profileLoopCuts(const ir::Program &prepared,
                const sim::MachineConfig &mcfg, const RunConfig &cfg,
                ProfileRunInfo &info)
{
    if (!TxRacePolicy::canLearnLoopCuts(prepared))
        return LoopCutTable(cfg.dynLoopcutInitial);
    TxRacePolicy profiler(TxRacePolicy::Scheme::Dyn, nullptr,
                          cfg.dynLoopcutInitial, 4, false, {}, 1, {},
                          cfg.slowpath);
    // Only the table is kept: the recorders would fill logs nobody
    // reads, and since they only observe, the table is the same.
    sim::MachineConfig prof_cfg = mcfg;
    prof_cfg.seed ^= cfg.profileSeedDelta;
    prof_cfg.recordEvents = false;
    prof_cfg.recordTrace = false;
    prof_cfg.recordFlight = false;
    sim::Machine machine(prepared, prof_cfg, profiler);
    sim::RunError err = machine.run();
    info.ran = true;
    info.steps = err.stepsExecuted;
    info.error = err.kind;
    return profiler.loopcuts();
}

/**
 * Run @p machine to completion and move what every mode reports into
 * @p result: the run error, the cost and its buckets, and the
 * telemetry bundle (whose registry holds all of the run's counters).
 */
void
runMachine(sim::Machine &machine, RunResult &result)
{
    result.error = machine.run();
    result.totalCost = machine.totalCost();
    result.buckets = machine.buckets();
    result.telemetry = std::move(machine.tel());
}

} // namespace

RunResult
runProgram(const ir::Program &prog, const RunConfig &cfg)
{
    if (!prog.finalized())
        fatal("runProgram: program not finalized");

    RunResult result;
    result.mode = cfg.mode;

    switch (cfg.mode) {
      case RunMode::Native: {
        NativePolicy policy;
        sim::Machine machine(prog, cfg.machine, policy);
        runMachine(machine, result);
        break;
      }

      case RunMode::Eraser: {
        ir::Program prepared = passes::preparedForTSan(prog);
        EraserPolicy policy;
        sim::Machine machine(prepared, cfg.machine, policy);
        runMachine(machine, result);
        result.races = policy.lockset().races();
        break;
      }

      case RunMode::RaceTM: {
        // RaceTM needs the transactionalized program (it uses the
        // same region markers) and the extended debug-bit hardware.
        // The elision pipeline stays off: RaceTM detects races from
        // raw HTM conflicts, and its comparison point is the paper's
        // unmodified instrumentation.
        passes::PassConfig pass_cfg = cfg.passes;
        pass_cfg.elide.enabled = false;
        ir::Program prepared =
            passes::preparedForTxRace(prog, pass_cfg);
        sim::MachineConfig mcfg = cfg.machine;
        mcfg.htm.trackInstructions = true;
        RaceTmPolicy policy;
        sim::Machine machine(prepared, mcfg, policy);
        runMachine(machine, result);
        result.races = policy.races();
        result.events = std::move(machine.events());
        break;
      }

      case RunMode::TSan:
      case RunMode::TSanSampling: {
        double rate =
            cfg.mode == RunMode::TSan ? 1.0 : cfg.sampleRate;
        ir::Program prepared = passes::preparedForTSan(prog);
        TsanPolicy policy(rate, cfg.machine.seed ^ 0x7a57eULL);
        sim::Machine machine(prepared, cfg.machine, policy);
        runMachine(machine, result);
        result.races = machine.det().races();
        break;
      }

      case RunMode::TxRaceNoOpt:
      case RunMode::TxRaceDynLoopcut:
      case RunMode::TxRaceProfLoopcut: {
        passes::PassConfig pass_cfg = cfg.passes;
        if (cfg.mode == RunMode::TxRaceNoOpt)
            pass_cfg.insertLoopCuts = false;
        passes::ElisionStats elision;
        ir::Program prepared =
            passes::preparedForTxRace(prog, pass_cfg, &elision);

        TxRacePolicy::Scheme scheme = TxRacePolicy::Scheme::NoOpt;
        if (cfg.mode == RunMode::TxRaceDynLoopcut)
            scheme = TxRacePolicy::Scheme::Dyn;
        else if (cfg.mode == RunMode::TxRaceProfLoopcut)
            scheme = TxRacePolicy::Scheme::Prof;

        // Windowed slow path needs the engine-side version log; the
        // flag is part of the run's identity (capacity model changes),
        // so it is set from the slowpath choice, never independently.
        sim::MachineConfig mcfg = cfg.machine;
        mcfg.htm.versionLog = cfg.slowpath == SlowPathKind::Window;

        LoopCutTable profiled(cfg.dynLoopcutInitial);
        if (scheme == TxRacePolicy::Scheme::Prof)
            profiled =
                profileLoopCuts(prepared, mcfg, cfg, result.profileRun);

        TxRacePolicy policy(scheme,
                            scheme == TxRacePolicy::Scheme::Prof
                                ? &profiled
                                : nullptr,
                            cfg.dynLoopcutInitial, 4,
                            cfg.conflictAddressHints, cfg.governor,
                            cfg.machine.seed ^ 0x9075ea1ULL,
                            cfg.budget, cfg.slowpath);
        sim::Machine machine(prepared, mcfg, policy);
        runMachine(machine, result);
        result.budget = policy.budgetReport();
        result.races = machine.det().races();
        result.events = std::move(machine.events());
        auto &reg = result.telemetry.registry;
        reg.add(reg.counter("pass.elide.candidates"), elision.candidates);
        reg.add(reg.counter("pass.elide.dominated"), elision.dominated);
        reg.add(reg.counter("pass.elide.raw_downgraded"),
                elision.rawDowngraded);
        reg.add(reg.counter("pass.elide.privatized"), elision.privatized);
        reg.add(reg.counter("pass.elide.total"), elision.elided());
        for (const auto &[fn, n] : elision.perFunction)
            reg.add(reg.counter("pass.elide.fn." + fn), n);
        break;
      }
    }
    result.telemetry.registry.exportTo(result.stats);
    return result;
}

double
recallOf(const detector::RaceSet &tool,
         const detector::RaceSet &reference)
{
    if (reference.count() == 0)
        return 1.0;
    return static_cast<double>(tool.intersectCount(reference)) /
           static_cast<double>(reference.count());
}

} // namespace txrace::core
