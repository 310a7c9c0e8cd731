/**
 * @file
 * The ProfLoopcut profiling pre-run and the rule that skips it: the
 * skip predicate is sound (whenever it says a profiling run cannot
 * learn, an explicit Dyn profiling run learns an empty table), the
 * skip is exact (a skipped ProfLoopcut run equals a DynLoopcut run),
 * and RunResult::profileRun reports what the pre-run did.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/driver.hh"
#include "core/policies.hh"
#include "ir/text.hh"
#include "workloads/workloads.hh"

using namespace txrace;

namespace {

constexpr uint64_t kSeeds = 5;
const core::SlowPathKind kSlowpaths[] = {core::SlowPathKind::Window,
                                         core::SlowPathKind::Region};

struct Subject
{
    std::string name;
    ir::Program program;
    sim::MachineConfig machine;
};

/** The 14 registry apps, apache-stream and the example programs. */
const std::vector<Subject> &
subjects()
{
    static const std::vector<Subject> all = [] {
        std::vector<Subject> out;
        std::vector<std::string> apps = workloads::appNames();
        apps.push_back("apache-stream");
        for (const std::string &name : apps) {
            workloads::AppModel app = workloads::makeApp(name);
            out.push_back({name, std::move(app.program), app.machine});
        }
        for (const auto &entry :
             std::filesystem::directory_iterator(TXRACE_EXAMPLES_DIR))
            if (entry.path().extension() == ".txr")
                out.push_back({entry.path().filename().string(),
                               ir::loadProgramFile(entry.path()),
                               sim::MachineConfig{}});
        return out;
    }();
    return all;
}

/** Pass variants: the default pipeline, no LoopCut ops (NoOpt's
 *  instrumentation), and K so large that every region the small-region
 *  heuristic can size is forced onto the slow path. */
std::vector<std::pair<std::string, passes::PassConfig>>
passVariants()
{
    passes::PassConfig no_cuts;
    no_cuts.insertLoopCuts = false;
    passes::PassConfig huge_k;
    huge_k.smallRegionK = 1u << 30;
    return {{"default", {}}, {"no-loopcuts", no_cuts},
            {"huge-k", huge_k}};
}

const Subject &
subject(const std::string &name)
{
    for (const Subject &s : subjects())
        if (s.name == name)
            return s;
    ADD_FAILURE() << "no subject " << name;
    return subjects().front();
}

core::RunConfig
runConfig(const Subject &s, core::RunMode mode, uint64_t seed)
{
    core::RunConfig cfg;
    cfg.mode = mode;
    cfg.machine = s.machine;
    cfg.machine.seed = seed;
    return cfg;
}

/** Totals, buckets, races (with hit counts) and the stats dump. */
void
expectSameRun(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.totalCost, b.totalCost);
    EXPECT_EQ(a.buckets, b.buckets);
    EXPECT_EQ(a.stats.all(), b.stats.all());
    ASSERT_EQ(a.races.keys(), b.races.keys());
    std::vector<detector::Race> ra = a.races.all();
    std::vector<detector::Race> rb = b.races.all();
    for (size_t i = 0; i < ra.size(); ++i)
        EXPECT_EQ(ra[i].hits, rb[i].hits);
}

} // namespace

TEST(ProfileSkip, RegistryAppsCanLearnApacheStreamCannot)
{
    // Every Table 1 app keeps its pre-run; the monitor workload, whose
    // regions are all below K, loses it.
    for (const std::string &name : workloads::appNames()) {
        ir::Program prepared =
            passes::preparedForTxRace(subject(name).program, {});
        EXPECT_TRUE(core::TxRacePolicy::canLearnLoopCuts(prepared))
            << name;
    }
    ir::Program stream =
        passes::preparedForTxRace(subject("apache-stream").program, {});
    EXPECT_FALSE(core::TxRacePolicy::canLearnLoopCuts(stream));
}

TEST(ProfileSkip, CannotLearnMeansDynProfilingLearnsNothing)
{
    size_t checked = 0;
    for (const auto &[variant, pass_cfg] : passVariants())
        for (const Subject &s : subjects()) {
            ir::Program prepared =
                passes::preparedForTxRace(s.program, pass_cfg);
            if (core::TxRacePolicy::canLearnLoopCuts(prepared))
                continue;
            for (core::SlowPathKind sp : kSlowpaths)
                for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
                    SCOPED_TRACE(s.name + " / " + variant + " / seed " +
                                 std::to_string(seed));
                    core::TxRacePolicy profiler(
                        core::TxRacePolicy::Scheme::Dyn, nullptr, 2, 4,
                        false, {}, 1, {}, sp);
                    sim::MachineConfig mcfg = s.machine;
                    mcfg.seed = seed;
                    mcfg.htm.versionLog = sp == core::SlowPathKind::Window;
                    sim::Machine machine(prepared, mcfg, profiler);
                    machine.run();
                    EXPECT_TRUE(profiler.loopcuts().all().empty());
                    ++checked;
                }
        }
    // The no-loopcuts variant alone covers every subject.
    EXPECT_GT(checked, subjects().size() * 2 * kSeeds);
}

TEST(ProfileSkip, SkippedPreRunEqualsDynLoopcut)
{
    size_t compared = 0;
    for (const auto &[variant, pass_cfg] : passVariants())
        for (const Subject &s : subjects())
            for (core::SlowPathKind sp : kSlowpaths)
                for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
                    SCOPED_TRACE(s.name + " / " + variant + " / seed " +
                                 std::to_string(seed));
                    core::RunConfig cfg = runConfig(
                        s, core::RunMode::TxRaceProfLoopcut, seed);
                    cfg.passes = pass_cfg;
                    cfg.slowpath = sp;
                    core::RunResult prof = core::runProgram(s.program, cfg);
                    if (prof.profileRun.ran)
                        continue;
                    cfg.mode = core::RunMode::TxRaceDynLoopcut;
                    core::RunResult dyn = core::runProgram(s.program, cfg);
                    expectSameRun(prof, dyn);
                    ++compared;
                }
    EXPECT_GT(compared, subjects().size() * 2 * kSeeds);
}

TEST(ProfileSkip, SkippedPreRunEqualsDynLoopcutUnderBudget)
{
    // The monitor-stream configuration: 5% budget plus governor.
    const Subject &s = subject("apache-stream");
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SCOPED_TRACE(seed);
        core::RunConfig cfg =
            runConfig(s, core::RunMode::TxRaceProfLoopcut, seed);
        cfg.governor.enabled = true;
        cfg.budget.enabled = true;
        cfg.budget.budgetPct = 5.0;
        core::RunResult prof = core::runProgram(s.program, cfg);
        EXPECT_FALSE(prof.profileRun.ran);
        cfg.mode = core::RunMode::TxRaceDynLoopcut;
        core::RunResult dyn = core::runProgram(s.program, cfg);
        expectSameRun(prof, dyn);
        ASSERT_EQ(prof.budget.windows.size(), dyn.budget.windows.size());
    }
}

TEST(ProfileSkip, ProfileRunReportsWhatThePreRunDid)
{
    core::RunResult stream = core::runProgram(
        subject("apache-stream").program,
        runConfig(subject("apache-stream"),
                  core::RunMode::TxRaceProfLoopcut, 1));
    EXPECT_FALSE(stream.profileRun.ran);
    EXPECT_EQ(stream.profileRun.steps, 0u);
    EXPECT_EQ(stream.profileRun.error, sim::RunError::Kind::None);

    const Subject &vips = subject("vips");
    core::RunResult full = core::runProgram(
        vips.program,
        runConfig(vips, core::RunMode::TxRaceProfLoopcut, 1));
    EXPECT_TRUE(full.profileRun.ran);
    EXPECT_GT(full.profileRun.steps, 0u);
    EXPECT_EQ(full.profileRun.error, sim::RunError::Kind::None);
    EXPECT_TRUE(full.error.ok());

    // Modes without a pre-run leave the field at its defaults.
    core::RunResult dyn = core::runProgram(
        vips.program, runConfig(vips, core::RunMode::TxRaceDynLoopcut, 1));
    EXPECT_FALSE(dyn.profileRun.ran);

    core::RunConfig tiny =
        runConfig(vips, core::RunMode::TxRaceProfLoopcut, 1);
    tiny.machine.maxSteps = 100;
    core::RunResult cut = core::runProgram(vips.program, tiny);
    EXPECT_TRUE(cut.profileRun.ran);
    EXPECT_EQ(cut.profileRun.error, sim::RunError::Kind::Truncated);
    EXPECT_EQ(cut.profileRun.steps, 100u);
    // RunResult::error still describes the measured run only.
    EXPECT_EQ(cut.error.kind, sim::RunError::Kind::Truncated);
}
