/**
 * @file
 * Contract tests for the decoded step loop (threaded-code dispatch,
 * quantum batching, O(1) runnable set): seeded determinism down to the
 * schedule hash and the full stats dump, golden schedules and stats
 * digests that pin the loop's exact behaviour across changes to it,
 * full-registry ground-truth recall, and structured BadAccess and
 * BadSync errors instead of process death on malformed workloads.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/driver.hh"
#include "core/fingerprint.hh"
#include "core/metrics_export.hh"
#include "core/policies.hh"
#include "fault/fault.hh"
#include "ir/builder.hh"
#include "passes/passes.hh"
#include "sim/machine.hh"
#include "workloads/workloads.hh"

using namespace txrace;
using namespace txrace::sim;
using namespace txrace::workloads;

namespace {

/** Two workers mixing shared, per-thread, and loop-indexed traffic —
 *  exercises every address shape the decoder specializes. */
ir::Program
mixedProgram()
{
    ir::ProgramBuilder b;
    ir::Addr shared = b.alloc("shared", 64, 64);
    ir::Addr slots = b.alloc("slots", 4 * 64, 64);
    ir::Addr table = b.alloc("table", 64 * 8);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(20, [&] {
        b.compute(3);
        b.store(ir::AddrExpr::perThread(slots, 64));
        b.loop(4, [&] {
            b.load(ir::AddrExpr::perIter(table, 8));
            b.compute(1);
        });
        b.store(ir::AddrExpr::absolute(shared));
        b.load(ir::AddrExpr::randomIn(table, 8, 8));
        b.syscall(1);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.endFunction();
    return b.build();
}

MachineConfig
quietConfig(uint64_t seed = 1)
{
    MachineConfig cfg;
    cfg.seed = seed;
    cfg.interruptPerStep = 0.0;
    return cfg;
}

/** FNV-1a digest of a stats dump: every name and value. */
uint64_t
statsDigest(const StatSet &stats)
{
    std::string text;
    for (const auto &[name, value] : stats.all())
        text += name + '=' + std::to_string(value) + '\n';
    return core::fnv1a64(text);
}

/** FNV-1a digest of a race set's static instruction-pair keys. */
uint64_t
raceDigest(const detector::RaceSet &races)
{
    std::string text;
    for (const auto &[a, b] : races.keys())
        text += std::to_string(a) + ',' + std::to_string(b) + '\n';
    return core::fnv1a64(text);
}

/** Golden driver-level outcome of one registry run. */
struct DriverGolden
{
    uint64_t totalCost;
    std::array<uint64_t, kNumBuckets> buckets;
    size_t races;
    uint64_t raceDigest;
    uint64_t statsDigest;
};

void
expectGolden(const core::RunResult &r, const DriverGolden &g)
{
    EXPECT_TRUE(r.error.ok());
    EXPECT_EQ(r.totalCost, g.totalCost);
    EXPECT_EQ(r.buckets, g.buckets);
    EXPECT_EQ(r.races.count(), g.races);
    EXPECT_EQ(raceDigest(r.races), g.raceDigest);
    EXPECT_EQ(statsDigest(r.stats), g.statsDigest);
}

} // namespace

TEST(SimCore, ScheduleHashAndStatsDeterministicPerSeed)
{
    ir::Program p = mixedProgram();
    auto once = [&](uint64_t seed) {
        core::TsanPolicy policy(1.0, 7);
        Machine m(p, quietConfig(seed), policy);
        EXPECT_TRUE(m.run().ok());
        return std::pair<uint64_t, uint64_t>(m.scheduleHash(),
                                             m.totalCost());
    };
    auto [hash_a, cost_a] = once(5);
    auto [hash_b, cost_b] = once(5);
    EXPECT_EQ(hash_a, hash_b);
    EXPECT_EQ(cost_a, cost_b);
    // A different seed produces a different (equally valid) schedule.
    auto [hash_c, cost_c] = once(6);
    EXPECT_NE(hash_a, hash_c);
    (void)cost_c;
}

TEST(SimCore, GoldenStatsDumpIsByteIdentical)
{
    // The full string-keyed stats dump — every exported counter,
    // gauge, and histogram summary — must be identical across
    // same-seed runs under the quantum loop, not just the headline
    // numbers. This is the contract campaign byte-determinism and the
    // profile `cmp` checks in CI build on.
    WorkloadParams params;
    params.calibrate = false;
    AppModel app = makeApp("vips", params);
    core::RunConfig cfg;
    cfg.mode = core::RunMode::TxRaceDynLoopcut;
    cfg.machine = app.machine;
    cfg.machine.seed = 3;
    core::RunResult a = core::runProgram(app.program, cfg);
    core::RunResult b = core::runProgram(app.program, cfg);
    EXPECT_EQ(a.stats.all(), b.stats.all());
    EXPECT_EQ(a.races.keys(), b.races.keys());
    EXPECT_EQ(a.totalCost, b.totalCost);
}

TEST(SimCore, QuantumIsBehaviorAffectingButDeterministic)
{
    // schedQuantum is part of the run's identity like the seed: each
    // value is deterministic, different values give different (valid)
    // schedules, and final memory agrees regardless.
    ir::Program p = mixedProgram();
    auto run = [&](uint32_t quantum) {
        MachineConfig cfg = quietConfig();
        cfg.schedQuantum = quantum;
        core::NativePolicy policy;
        Machine m(p, cfg, policy);
        EXPECT_TRUE(m.run().ok());
        std::vector<uint64_t> image;
        for (ir::Addr a = 0; a < p.addrSpaceSize(); a += 8)
            image.push_back(m.memory().load(a));
        return std::pair<uint64_t, std::vector<uint64_t>>(
            m.scheduleHash(), image);
    };
    auto [h1a, mem1a] = run(1);
    auto [h1b, mem1b] = run(1);
    auto [h32, mem32] = run(32);
    EXPECT_EQ(h1a, h1b);
    EXPECT_EQ(mem1a, mem1b);
    EXPECT_NE(h1a, h32);
    EXPECT_EQ(mem1a, mem32);
}

TEST(SimCore, GroundTruthRecallAcrossRegistry)
{
    // The always-on happens-before baseline must still find exactly
    // the planted races for every app in the registry under the
    // decoded quantum loop, at more than one seed. This is the recall
    // floor the campaign precision/recall gates build on.
    for (const std::string &name : appNames()) {
        WorkloadParams params;
        params.calibrate = false;
        AppModel app = makeApp(name, params);
        for (uint64_t seed : {1ull, 2ull}) {
            core::RunConfig cfg;
            cfg.mode = core::RunMode::TSan;
            cfg.machine = app.machine;
            cfg.machine.seed = seed;
            core::RunResult tsan = core::runProgram(app.program, cfg);
            EXPECT_EQ(tsan.races.count(), app.plantedRaces)
                << name << " seed " << seed;
        }
    }
}

TEST(SimCore, BadAccessSurfacesThroughDriver)
{
    // A worker whose address walks off the end of the address space —
    // thread-strided (tid >= 1 lands beyond the allocation) or drawn
    // at random from a range far wider than it: the run must end with
    // a structured BadAccess error through the full driver pipeline,
    // so campaign workers survive malformed workloads.
    auto run = [](auto makeAddr) {
        ir::ProgramBuilder b;
        ir::Addr small = b.alloc("small", 128, 64);
        ir::FuncId worker = b.beginFunction("worker");
        b.loop(8, [&] { b.load(makeAddr(small)); });
        b.endFunction();
        b.beginFunction("main");
        b.spawn(worker, 3);
        b.joinAll();
        b.endFunction();
        ir::Program p = b.build();

        core::RunConfig cfg;
        cfg.mode = core::RunMode::TxRaceDynLoopcut;
        cfg.machine.interruptPerStep = 0.0;
        return core::runProgram(p, cfg);
    };
    core::RunResult strided = run([](ir::Addr small) {
        return ir::AddrExpr::perThread(small, 4096);
    });
    core::RunResult random = run([](ir::Addr small) {
        return ir::AddrExpr::randomIn(small, 64, 4096);
    });
    for (const core::RunResult *r : {&strided, &random}) {
        EXPECT_EQ(r->error.kind, RunError::Kind::BadAccess);
        EXPECT_FALSE(r->error.ok());
        EXPECT_FALSE(r->error.threads.empty());
    }
}

TEST(SimCore, BadSyncSurfacesThroughDriver)
{
    // Sync misuse in a program (re-locking a held mutex, releasing one
    // the thread does not hold, joining a spawn index past every
    // spawned thread) ends the run with a structured BadSync error in
    // every mode, naming the thread and the instruction it is parked
    // on, instead of killing the process.
    auto program = [](auto body) {
        ir::ProgramBuilder b;
        ir::Addr x = b.alloc("x", 64, 64);
        b.beginFunction("main");
        b.store(ir::AddrExpr::absolute(x));
        body(b);
        b.endFunction();
        return b.build();
    };
    struct Case
    {
        const char *name;
        ir::Program prog;
        /** The misused instruction (the TxRace passes move its pc). */
        const char *instr;
    };
    const Case cases[] = {
        {"relock", program([](ir::ProgramBuilder &b) {
             b.lock(1);
             b.lock(1);
             b.unlock(1);
         }),
         "lock id=1"},
        {"foreign-unlock", program([](ir::ProgramBuilder &b) {
             b.unlock(1);
         }),
         "unlock id=1"},
        {"bad-join", program([](ir::ProgramBuilder &b) { b.join(3); }),
         "join idx=3"},
    };
    for (const Case &c : cases) {
        for (core::RunMode mode :
             {core::RunMode::Native, core::RunMode::TSan,
              core::RunMode::TxRaceProfLoopcut,
              core::RunMode::TxRaceDynLoopcut}) {
            core::RunConfig cfg;
            cfg.mode = mode;
            core::RunResult r = core::runProgram(c.prog, cfg);
            SCOPED_TRACE(std::string(c.name) + " in " +
                         core::runModeName(mode));
            EXPECT_EQ(r.error.kind, RunError::Kind::BadSync);
            EXPECT_STREQ(runErrorKindName(r.error.kind), "bad-sync");
            ASSERT_EQ(r.error.threads.size(), 1u);
            EXPECT_EQ(r.error.threads[0].tid, 0u);
            const std::string &where = r.error.threads[0].where;
            EXPECT_TRUE(where.starts_with("main:")) << where;
            EXPECT_TRUE(where.ends_with(std::string(" ") + c.instr))
                << where;
        }
    }
}

TEST(SimCore, GoldenZeroRateSchedules)
{
    // Cross-change oracle for the step loop: exact schedule digests
    // and virtual costs at zero injection rates, recorded once and
    // pinned. Any change to the loop, the scheduler pick, the handlers
    // or the RNG streams shows up here, not only a change in
    // schedule-independent outcomes.
    struct Golden
    {
        bool tsan;
        uint64_t seed;
        uint32_t quantum;
        uint64_t hash;
        uint64_t cost;
    };
    const Golden table[] = {
        {false, 1, 1, 2693611815529163612ull, 1020},
        {false, 1, 32, 7080501895227343869ull, 1020},
        {false, 2, 1, 2606031226892523797ull, 1020},
        {false, 2, 32, 15633752843445249771ull, 1020},
        {true, 1, 1, 2693611815529163612ull, 3556},
        {true, 1, 32, 7080501895227343869ull, 3556},
        {true, 2, 1, 2606031226892523797ull, 3556},
        {true, 2, 32, 15633752843445249771ull, 3556},
    };
    ir::Program p = mixedProgram();
    for (const Golden &g : table) {
        SCOPED_TRACE(testing::Message()
                     << (g.tsan ? "tsan" : "native") << " seed " << g.seed
                     << " quantum " << g.quantum);
        MachineConfig cfg = quietConfig(g.seed);
        cfg.schedQuantum = g.quantum;
        core::NativePolicy native;
        core::TsanPolicy tsan(1.0, 7);
        Machine m(p, cfg,
                  g.tsan ? static_cast<ExecutionPolicy &>(tsan) : native);
        EXPECT_TRUE(m.run().ok());
        EXPECT_EQ(m.scheduleHash(), g.hash);
        EXPECT_EQ(m.totalCost(), g.cost);
    }
}

TEST(SimCore, GoldenInterruptSchedule)
{
    // Same oracle with timer interrupts on. One core for three threads
    // puts the machine in the oversubscribed regime, so TxRace
    // transactions take interrupt aborts and the pinned digests cover
    // the injection draws and the rollbacks they cause.
    struct Golden
    {
        uint64_t seed;
        uint64_t hash;
        uint64_t cost;
    };
    const Golden table[] = {
        {1, 14659316986956338732ull, 3549},
        {2, 17097021600509763931ull, 3506},
    };
    ir::Program prepared = passes::preparedForTxRace(mixedProgram());
    uint64_t interrupts = 0;
    for (const Golden &g : table) {
        core::TxRacePolicy policy(core::TxRacePolicy::Scheme::Dyn);
        MachineConfig cfg = quietConfig(g.seed);
        cfg.nCores = 1;
        cfg.interruptPerStep = 1e-3;
        Machine m(prepared, cfg, policy);
        EXPECT_TRUE(m.run().ok());
        interrupts += m.tel().registry.valueByName("machine.interrupt_aborts");
        EXPECT_EQ(m.scheduleHash(), g.hash) << "seed " << g.seed;
        EXPECT_EQ(m.totalCost(), g.cost) << "seed " << g.seed;
    }
    EXPECT_GT(interrupts, 0u);
}

TEST(SimCore, GoldenDriverRuns)
{
    // Registry apps through the full driver: cost buckets, race keys
    // and the digest of the whole stats dump. dedup runs under the
    // chaos fault plan, so every fault-episode edge is on the path.
    auto run = [](const std::string &name, uint64_t seed,
                  const fault::FaultPlan &faults) {
        WorkloadParams params;
        params.calibrate = false;
        AppModel app = makeApp(name, params);
        core::RunConfig cfg;
        cfg.mode = core::RunMode::TxRaceDynLoopcut;
        cfg.machine = app.machine;
        cfg.machine.seed = seed;
        cfg.machine.faults = faults;
        return core::runProgram(app.program, cfg);
    };
    {
        SCOPED_TRACE("vips");
        expectGolden(run("vips", 3, {}),
                     {423525,
                      {164001, 221450, 36019, 1652, 403, 0},
                      108,
                      897883145238714849ull,
                      15409326499536316598ull});
    }
    {
        SCOPED_TRACE("dedup chaos");
        core::RunResult r =
            run("dedup", 7, fault::makeScenario("chaos", 30000));
        EXPECT_GT(r.stats.get("fault.episodes_begun"), 0u);
        expectGolden(r, {47792,
                         {10516, 9358, 0, 409, 27509, 0},
                         0,
                         14695981039346656037ull,
                         8096187514028582888ull});
    }
}

TEST(SimCore, GoldenPerModeCounters)
{
    // Counter oracle for every detection mode: FNV-1a digests of the
    // full stats dump and of the txrace-metrics-v1 document, one app
    // and seed per mode, plus a TxRace run under the chaos fault plan
    // (fault-episode counters) and one under budget + governor
    // (monitor counters). Each mode feeds a different mix of counter
    // sources (machine, HTM engine, FastTrack, lockset, policy,
    // elision pass), so a source that is dropped, double counted or
    // renamed moves a digest here.
    struct Golden
    {
        const char *label;
        core::RunMode mode;
        const char *scenario;  ///< fault scenario, or nullptr
        bool monitor;          ///< budget + governor
        uint64_t statsDigest;
        uint64_t jsonDigest;
    };
    using core::RunMode;
    const Golden table[] = {
        {"native", RunMode::Native, nullptr, false,
         16850896873376036676ull, 12184788225347900012ull},
        {"tsan", RunMode::TSan, nullptr, false,
         8990410440068579352ull, 17828288486084949805ull},
        {"tsan-sampling", RunMode::TSanSampling, nullptr, false,
         9475614951966586437ull, 14007625509019587479ull},
        {"eraser", RunMode::Eraser, nullptr, false,
         13892438091853296140ull, 18179904816424130616ull},
        {"racetm", RunMode::RaceTM, nullptr, false,
         3936948544918430222ull, 9767681785517037112ull},
        {"txrace-noopt", RunMode::TxRaceNoOpt, nullptr, false,
         1978541392043366450ull, 9268034002762015065ull},
        {"txrace-dyn", RunMode::TxRaceDynLoopcut, nullptr, false,
         15409326499536316598ull, 16494195489821203299ull},
        {"txrace-prof", RunMode::TxRaceProfLoopcut, nullptr, false,
         17800017643682406389ull, 16209397298842352319ull},
        {"txrace-dyn chaos", RunMode::TxRaceDynLoopcut, "chaos", false,
         14938189854612031508ull, 15688371069867029323ull},
        {"txrace-dyn monitor", RunMode::TxRaceDynLoopcut, nullptr, true,
         13483793679046822048ull, 4410090250276300331ull},
    };
    WorkloadParams params;
    params.calibrate = false;
    AppModel app = makeApp("vips", params);
    for (const Golden &g : table) {
        SCOPED_TRACE(g.label);
        core::RunConfig cfg;
        cfg.mode = g.mode;
        cfg.sampleRate = 0.25;
        cfg.machine = app.machine;
        cfg.machine.seed = 3;
        if (g.scenario)
            cfg.machine.faults = fault::makeScenario(g.scenario, 30000);
        if (g.monitor) {
            cfg.governor.enabled = true;
            cfg.budget.enabled = true;
        }
        core::RunResult r = core::runProgram(app.program, cfg);
        ASSERT_TRUE(r.error.ok());
        core::MetricsMeta meta;
        meta.app = "vips";
        meta.mode = g.label;
        meta.seed = 3;
        std::ostringstream json;
        core::writeMetricsJson(json, meta, &app.program, r);
        EXPECT_EQ(statsDigest(r.stats), g.statsDigest);
        EXPECT_EQ(core::fnv1a64(json.str()), g.jsonDigest);
    }
}
