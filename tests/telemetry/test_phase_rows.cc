/**
 * @file
 * Phase rows at the edges of a run. The machine keeps each thread's
 * phase rows in its context and transfers them into the profiler when
 * the run ends, so these pin the profiler's exact contents (table
 * lengths included) for runs that end abnormally — mid-quantum by
 * BadAccess or the step guard, or by deadlock — and for a thread that
 * is charged but never executes a step. The expected strings are what
 * per-step attribution wrote before the rows moved into the context.
 * The rows string holds every number the profiler keeps, so it pins
 * the "phases" block of the metrics document too; the TxRace cases
 * also pin that block literally.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>

#include "core/driver.hh"
#include "core/metrics_export.hh"
#include "ir/builder.hh"
#include "sim/machine.hh"
#include "telemetry/phase.hh"

using namespace txrace;

namespace {

/** Every number the profiler holds, tables row by row. */
std::string
describe(const telemetry::PhaseProfiler &ph)
{
    std::ostringstream os;
    auto rows = [&os](const std::vector<telemetry::PhaseProfiler::PerPhase>
                          &table) {
        os << table.size() << "[";
        for (const auto &row : table)
            os << row[0] << "," << row[1] << "," << row[2] << ","
               << row[3] << ";";
        os << "]";
    };
    os << "steps " << ph.total() << " ";
    rows(ph.perThread());
    os << " cost " << ph.totalCost() << " ";
    rows(ph.perThreadCost());
    return os.str();
}

/** The "phases" object of the run's metrics document, whitespace
 *  removed. */
std::string
phasesJson(const ir::Program &prog, const core::RunResult &r)
{
    core::MetricsMeta meta;
    meta.app = "unit-test";
    meta.mode = core::runModeName(r.mode);
    std::ostringstream os;
    core::writeMetricsJson(os, meta, &prog, r);
    const std::string doc = os.str();
    size_t at = doc.find("\"phases\":");
    if (at == std::string::npos)
        return "";
    size_t open = doc.find('{', at);
    int depth = 0;
    for (size_t i = open; i < doc.size(); ++i) {
        if (doc[i] == '{') {
            ++depth;
        } else if (doc[i] == '}' && --depth == 0) {
            std::string out;
            for (size_t k = at; k <= i; ++k)
                if (!std::isspace(static_cast<unsigned char>(doc[k])))
                    out += doc[k];
            return out;
        }
    }
    return "";
}

/** Workers that store to one shared line and read their own slice. */
ir::Program
contended(uint32_t workers)
{
    ir::ProgramBuilder b;
    ir::Addr shared = b.alloc("shared", 64);
    ir::Addr own = b.alloc("own", 16 * 512);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(40, [&] {
        b.store(ir::AddrExpr::absolute(shared), "racy-store");
        b.load(ir::AddrExpr::perThread(own, 512));
        b.compute(3);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, workers);
    b.joinAll();
    b.endFunction();
    return b.build();
}

core::RunConfig
config(core::RunMode mode, uint64_t seed)
{
    core::RunConfig cfg;
    cfg.mode = mode;
    cfg.machine.seed = seed;
    return cfg;
}

} // namespace

TEST(PhaseRows, ChargedChildThatNeverStepsGetsOnlyACostRow)
{
    // The policy charges the child at creation; the step guard ends
    // the run right after the create step, so the child never
    // executes. It gets a cost row but no step row, also when the
    // charge is zero units.
    ir::ProgramBuilder b;
    ir::FuncId worker = b.beginFunction("worker");
    b.compute(1);
    b.endFunction();
    b.beginFunction("main");
    b.compute(2);
    b.spawn(worker, 1);
    b.joinAll();
    b.endFunction();
    ir::Program prog = b.build();

    class ChargeChild : public sim::ExecutionPolicy
    {
      public:
        explicit ChargeChild(uint64_t c) : c_(c) {}
        void
        onThreadCreated(sim::Machine &m, Tid, Tid child) override
        {
            m.addCost(child, c_, sim::Bucket::Base);
        }

      private:
        uint64_t c_;
    };
    for (uint64_t charge : {5, 0}) {
        ChargeChild policy(charge);
        sim::MachineConfig cfg;
        cfg.maxSteps = 2;
        sim::Machine m(prog, cfg, policy);
        ASSERT_EQ(m.run().kind, sim::RunError::Kind::Truncated);
        EXPECT_EQ(describe(m.tel().phases),
                  charge == 5
                      ? "steps 2 1[0,0,0,2;] "
                        "cost 67 2[0,0,0,62;0,0,0,5;]"
                      : "steps 2 1[0,0,0,2;] "
                        "cost 62 2[0,0,0,62;0,0,0,0;]");
    }
}

struct Pinned
{
    core::RunMode mode;
    const char *rows;
    const char *json;  ///< nullptr: the rows pin it already
};

TEST(PhaseRows, BadAccessMidQuantum)
{
    // Workers walk off the address space inside their transactions.
    ir::ProgramBuilder b;
    ir::Addr small = b.alloc("small", 128, 64);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(8, [&] {
        b.compute(2);
        b.load(ir::AddrExpr::perThread(small, 4096));
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 3);
    b.joinAll();
    b.endFunction();
    ir::Program prog = b.build();
    for (const Pinned &pin : {
             Pinned{core::RunMode::TSan,
                    "steps 4 2[0,0,0,1;0,0,0,3;] "
                    "cost 67 2[0,0,0,64;0,0,0,3;]",
                    nullptr},
             Pinned{core::RunMode::TxRaceDynLoopcut,
                    "steps 5 2[0,0,0,1;3,0,0,1;] "
                    "cost 87 2[0,0,0,64;3,0,0,20;]",
                    "\"phases\":{\"total_steps\":5,\"fast\":3,\"slow\":0,"
                    "\"degraded\":0,\"native\":2,\"per_thread\":[{\"tid\":0,"
                    "\"fast\":0,\"slow\":0,\"degraded\":0,\"native\":1},"
                    "{\"tid\":1,\"fast\":3,\"slow\":0,\"degraded\":0,"
                    "\"native\":1}],\"cost\":{\"total\":87,\"fast\":3,"
                    "\"slow\":0,\"degraded\":0,\"native\":84}}"},
         }) {
        core::RunResult r = core::runProgram(prog, config(pin.mode, 3));
        ASSERT_EQ(r.error.kind, sim::RunError::Kind::BadAccess);
        EXPECT_EQ(describe(r.telemetry.phases), pin.rows)
            << core::runModeName(pin.mode);
        if (pin.json) {
            EXPECT_EQ(phasesJson(prog, r), pin.json)
                << core::runModeName(pin.mode);
        }
    }
}

TEST(PhaseRows, TruncatedMidQuantum)
{
    ir::Program prog = contended(3);
    for (const Pinned &pin : {
             Pinned{core::RunMode::Native,
                    "steps 157 3[0,0,0,2;0,0,0,96;0,0,0,59;] "
                    "cost 312 3[0,0,0,120;0,0,0,120;0,0,0,72;]",
                    nullptr},
             Pinned{core::RunMode::TSan,
                    "steps 157 3[0,0,0,2;0,0,0,96;0,0,0,59;] "
                    "cost 1022 3[0,0,0,128;0,0,0,552;0,0,0,342;]",
                    nullptr},
             Pinned{core::RunMode::TxRaceProfLoopcut,
                    "steps 157 4[0,0,0,4;5,70,0,1;4,40,0,1;5,26,0,1;] "
                    "cost 1013 4[0,0,0,192;12,196,0,136;20,112,0,127;"
                    "21,70,0,127;]",
                    "\"phases\":{\"total_steps\":157,\"fast\":14,\"slow\":136,"
                    "\"degraded\":0,\"native\":7,\"per_thread\":[{\"tid\":0,"
                    "\"fast\":0,\"slow\":0,\"degraded\":0,\"native\":4},"
                    "{\"tid\":1,\"fast\":5,\"slow\":70,\"degraded\":0,"
                    "\"native\":1},{\"tid\":2,\"fast\":4,\"slow\":40,"
                    "\"degraded\":0,\"native\":1},{\"tid\":3,\"fast\":5,"
                    "\"slow\":26,\"degraded\":0,\"native\":1}],"
                    "\"cost\":{\"total\":1013,\"fast\":53,\"slow\":378,"
                    "\"degraded\":0,\"native\":582}}"},
             Pinned{core::RunMode::TxRaceNoOpt,
                    "steps 157 3[0,0,0,3;5,66,0,1;4,77,0,1;] "
                    "cost 987 3[0,0,0,192;12,234,0,136;20,266,0,127;]",
                    nullptr},
         }) {
        core::RunConfig cfg = config(pin.mode, 5);
        cfg.machine.maxSteps = 157;
        core::RunResult r = core::runProgram(prog, cfg);
        ASSERT_EQ(r.error.kind, sim::RunError::Kind::Truncated);
        EXPECT_EQ(describe(r.telemetry.phases), pin.rows)
            << core::runModeName(pin.mode);
        if (pin.json) {
            EXPECT_EQ(phasesJson(prog, r), pin.json)
                << core::runModeName(pin.mode);
        }
    }
}

TEST(PhaseRows, Deadlock)
{
    // Workers run and finish; main then waits on a condition variable
    // nobody signals.
    ir::ProgramBuilder b;
    ir::Addr shared = b.alloc("shared", 64);
    ir::FuncId worker = b.beginFunction("worker");
    b.loop(20, [&] {
        b.store(ir::AddrExpr::absolute(shared));
        b.compute(4);
    });
    b.endFunction();
    b.beginFunction("main");
    b.spawn(worker, 2);
    b.joinAll();
    b.wait(0);
    b.endFunction();
    ir::Program prog = b.build();
    for (const Pinned &pin : {
             Pinned{core::RunMode::TSan,
                    "steps 130 3[0,0,0,6;0,0,0,62;0,0,0,62;] "
                    "cost 768 3[0,0,0,208;0,0,0,280;0,0,0,280;]",
                    nullptr},
             Pinned{core::RunMode::TxRaceProfLoopcut,
                    "steps 192 3[0,0,0,6;12,82,0,2;6,82,0,2;] "
                    "cost 1088 3[0,0,0,208;24,280,0,145;24,280,0,127;]",
                    "\"phases\":{\"total_steps\":192,\"fast\":18,\"slow\":164,"
                    "\"degraded\":0,\"native\":10,\"per_thread\":[{\"tid\":0,"
                    "\"fast\":0,\"slow\":0,\"degraded\":0,\"native\":6},"
                    "{\"tid\":1,\"fast\":12,\"slow\":82,\"degraded\":0,"
                    "\"native\":2},{\"tid\":2,\"fast\":6,\"slow\":82,"
                    "\"degraded\":0,\"native\":2}],\"cost\":{\"total\":1088,"
                    "\"fast\":48,\"slow\":560,\"degraded\":0,"
                    "\"native\":480}}"},
         }) {
        core::RunResult r = core::runProgram(prog, config(pin.mode, 9));
        ASSERT_EQ(r.error.kind, sim::RunError::Kind::Deadlock);
        EXPECT_EQ(describe(r.telemetry.phases), pin.rows)
            << core::runModeName(pin.mode);
        if (pin.json) {
            EXPECT_EQ(phasesJson(prog, r), pin.json)
                << core::runModeName(pin.mode);
        }
    }
}
