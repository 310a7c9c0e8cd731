/**
 * @file
 * perfbench_e2e: the full-registry end-to-end benchmark.
 *
 *   perfbench_e2e --workload W --seed N --seconds S --trace 0|1 --out F
 *
 * Workloads (see perfbench/README.md for why each was chosen):
 *   hunt-sweep      campaign::runCampaign, sweep strategy, all 14
 *                   registry apps, txrace-dyn, window slow path
 *   table1-long     the paper's Table 1 protocol at scale 8: Native,
 *                   TSan and TxRace-ProfLoopcut per app, calibrated
 *   monitor-stream  apache-stream under a 5% budget plus governor
 *
 * Every input derives from --seed. With --trace 0 the program repeats
 * the workload's measured pass for S seconds on a closed-loop pool of
 * at most min(4, nproc) threads and records host times, simulated
 * results and a digest per pass. With --trace 1 it runs one
 * attribution pass (spans around each public layer call on the same
 * inputs, plus layer counters), then alternates untraced and traced
 * serial passes of the real work for S seconds to measure the
 * tracing overhead. Either way it writes one raw JSON document to F;
 * perfbench/run.py turns that into the named metrics.
 *
 * The simulated HTM starts every run with empty caches; the
 * benchmark does not warm them.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "campaign/aggregate.hh"
#include "campaign/campaign.hh"
#include "campaign/execute.hh"
#include "campaign/strategy.hh"
#include "core/driver.hh"
#include "core/fingerprint.hh"
#include "core/metrics_export.hh"
#include "core/repro.hh"
#include "passes/passes.hh"
#include "sim/decode.hh"
#include "support/stats.hh"
#include "tracer.hh"
#include "workloads/workloads.hh"

using namespace txrace;

namespace perfbench {
namespace {

/** Set-up repetitions per process; run.py reports their median. */
constexpr int kSetupRepeats = 7;
/** Percentiles need this many per-run samples (run.py enforces the
 *  same rule); measured passes continue past --seconds until met. */
constexpr size_t kMinRunSamples = 100;
/** Seeds per app in hunt-sweep (14 apps -> 448 runs per campaign). */
constexpr uint64_t kHuntSeedsPerApp = 32;
constexpr uint64_t kTableScale = 8;
/** Seeds per app and mode in one table1-long pass (the paper
 *  averages five runs). */
constexpr uint64_t kTableTrials = 5;
constexpr uint64_t kMonitorScale = 16;
constexpr uint64_t kMonitorSeeds = 24;
constexpr double kMonitorBudgetPct = 5.0;

// ---------------------------------------------------------------- util

/** Closed loop: `width` threads (the caller included); each takes the
 *  next job only after its previous one finished. */
template <class F>
void
closedLoop(size_t n, unsigned width, F &&f)
{
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t i; (i = next.fetch_add(1)) < n;)
            f(i);
    };
    std::vector<std::thread> threads;
    for (unsigned w = 1; w < width && w < n; ++w)
        threads.emplace_back(worker);
    worker();
    for (std::thread &t : threads)
        t.join();
}

/** Discards everything written (writeMetricsJson's sink). */
class NullBuf : public std::streambuf
{
  protected:
    int overflow(int c) override { return c; }
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

uint64_t
mix(uint64_t h, uint64_t v)
{
    return core::fnv1a64(std::string_view(
                             reinterpret_cast<const char *>(&v),
                             sizeof v),
                         h);
}

uint64_t
mixStr(uint64_t h, const std::string &s)
{
    return core::fnv1a64(s, mix(h, s.size()));
}

double
ratio(uint64_t num, uint64_t den)
{
    return den == 0 ? 0.0 : double(num) / double(den);
}

std::set<std::string>
truthOf(const std::string &app)
{
    std::set<std::string> out;
    for (const workloads::RaceLabel &l : workloads::groundTruthRaces(app))
        out.insert(core::raceLabelKey(l.a, l.b));
    return out;
}

// ------------------------------------------------------------ counters

/** Every counter the benchmark reads from a RunResult. */
const char *const kCounterNames[] = {
    "machine.steps",         "machine.rollbacks",
    "htm.begins",            "htm.commits",
    "htm.aborts.conflict",   "htm.aborts.capacity",
    "htm.aborts.unknown",    "htm.dir.probes",
    "htm.dir.filter_hit",    "htm.vlog.entries",
    "detector.reads",        "detector.writes",
    "detector.epoch_fast_hits", "detector.replay_checks",
    "txrace.slow_regions",   "txrace.window.replays",
    "txrace.window.fallbacks", "txrace.window.watch_checks",
    "budget.windows",        "budget.sampled_skips",
    "budget.site_cuts",
};

/**
 * Sums of the counters above over a pass, plus which names the
 * library actually produced. Zero-valued counters are omitted from
 * RunResult::stats, so a name counts as present when any run of the
 * pass exported it or interned it in its telemetry registry; each
 * workload names the counters it must see (a renamed counter would
 * otherwise read as a silent 0).
 */
class Counters
{
  public:
    void
    add(const core::RunResult &r)
    {
        for (const char *name : kCounterNames) {
            sums_[name] += r.stats.get(name);
            if (r.stats.all().count(name) ||
                r.telemetry.registry.find(name) != telemetry::kNoMetric)
                seen_.insert(name);
        }
        for (size_t b = 0; b < sim::kNumBuckets; ++b)
            buckets_[b] += r.buckets[b];
    }

    uint64_t get(const std::string &name) const
    {
        auto it = sums_.find(name);
        return it == sums_.end() ? 0 : it->second;
    }

    bool seen(const std::string &name) const { return seen_.count(name); }

    const std::array<uint64_t, sim::kNumBuckets> &
    buckets() const
    {
        return buckets_;
    }

  private:
    std::map<std::string, uint64_t> sums_;
    std::set<std::string> seen_;
    std::array<uint64_t, sim::kNumBuckets> buckets_{};
};

// -------------------------------------------------------------- passes

/** Simulated end-to-end results of one pass. NaN = the workload does
 *  not exercise the metric (run.py prints the documented neutral
 *  value for it). */
struct Sim
{
    double txraceOverhead = NAN;
    double tsanOverhead = NAN;
    double paperErrPct = NAN;
    double budgetHeldFrac = NAN;
    double recall = NAN;
    double precision = NAN;
    uint64_t falsePositives = 0;
};

/** One pass over a workload's whole input set. */
struct Pass
{
    int64_t wallNs = 0;
    uint64_t runs = 0;
    uint64_t failed = 0;
    uint64_t steps = 0;
    uint64_t digest = 0;
    std::vector<int64_t> runNs;
    Sim sim;
};

/** What the benchmark keeps of one simulated run. */
struct RunSummary
{
    bool ok = true;
    uint64_t totalCost = 0;
    uint64_t steps = 0;
    std::array<uint64_t, sim::kNumBuckets> buckets{};
    std::vector<std::string> labels;  ///< sorted race labels
    uint64_t budgetWindows = 0;
    uint64_t budgetOver = 0;
    int64_t wallNs = 0;
};

RunSummary
summarize(const workloads::AppModel &app, const core::RunResult &r)
{
    RunSummary s;
    s.ok = r.error.ok();
    s.totalCost = r.totalCost;
    s.steps = r.stats.get("machine.steps");
    s.buckets = r.buckets;
    for (const auto &[sig, race] :
         core::fingerprintedRaces(app.program, r.races))
        s.labels.push_back(sig.label);
    std::sort(s.labels.begin(), s.labels.end());
    s.budgetWindows = r.budget.windows.size();
    for (const core::BudgetWindow &w : r.budget.windows)
        s.budgetOver += w.hardOver ? 1 : 0;
    return s;
}

/** Digest of everything simulated in @p runs (host times excluded). */
uint64_t
digestOf(const std::vector<RunSummary> &runs)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const RunSummary &s : runs) {
        h = mix(h, s.ok);
        h = mix(h, s.totalCost);
        h = mix(h, s.steps);
        for (uint64_t b : s.buckets)
            h = mix(h, b);
        for (const std::string &l : s.labels)
            h = mixStr(h, l);
        h = mix(h, s.budgetWindows);
        h = mix(h, s.budgetOver);
    }
    return h;
}

/** Per-layer results of the attribution pass (counts and ratios;
 *  times come from the spans). */
using Layers = std::map<std::string, double>;

/**
 * Attribution of one run: the prepare and decode layers are timed as
 * siblings of core.runProgram on the same input (runProgram repeats
 * both internally, so run.py subtracts them to get the step loop's
 * self time), then the telemetry exporters on its result.
 */
void
attributeRun(Tracer *t, uint64_t runId, const workloads::AppModel &app,
             const core::RunConfig &rc, Counters &counters,
             uint64_t &elided)
{
    Scope run(t, "run", runId);
    ir::Program prepared;
    bool transformed = rc.mode != core::RunMode::Native;
    if (transformed) {
        // The pipelines core::runProgram applies: the benchmark runs
        // Native, TSan and the two loop-cut TxRace modes.
        Scope s(t, "passes.prepare", runId);
        if (rc.mode == core::RunMode::TSan) {
            prepared = passes::preparedForTSan(app.program);
        } else {
            passes::ElisionStats el;
            prepared =
                passes::preparedForTxRace(app.program, rc.passes, &el);
            elided += el.elided();
        }
    }
    {
        Scope s(t, "sim.decode", runId);
        sim::DecodedProgram d = sim::decodeProgram(
            transformed ? prepared : app.program, rc.machine.cost);
        (void)d;
    }
    core::RunResult r;
    {
        Scope s(t, "core.runProgram", runId);
        r = core::runProgram(app.program, rc);
    }
    {
        Scope s(t, "telemetry.profile", runId);
        telemetry::Profile p = core::buildRunProfile(app.name, r);
        (void)p;
    }
    {
        Scope s(t, "telemetry.metrics_json", runId);
        NullBuf buf;
        std::ostream sink(&buf);
        core::MetricsMeta meta;
        meta.app = app.name;
        meta.mode = core::cliModeName(rc.mode);
        meta.seed = rc.machine.seed;
        core::writeMetricsJson(sink, meta, &app.program, r);
    }
    counters.add(r);
}

/** Layer counters and ratios of an attribution pass. */
void
counterLayers(const Counters &c, uint64_t elided, Layers &out)
{
    out["passes.elided"] = double(elided);
    out["sim.steps"] = double(c.get("machine.steps"));
    out["sim.rollbacks"] = double(c.get("machine.rollbacks"));
    out["htm.begins"] = double(c.get("htm.begins"));
    out["htm.commits"] = double(c.get("htm.commits"));
    out["htm.commit_ratio"] =
        ratio(c.get("htm.commits"), c.get("htm.begins"));
    out["htm.aborts.conflict"] = double(c.get("htm.aborts.conflict"));
    out["htm.aborts.capacity"] = double(c.get("htm.aborts.capacity"));
    out["htm.aborts.unknown"] = double(c.get("htm.aborts.unknown"));
    out["htm.dir.probes"] = double(c.get("htm.dir.probes"));
    out["htm.dir.filter_hit_ratio"] =
        ratio(c.get("htm.dir.filter_hit"),
              c.get("htm.dir.filter_hit") + c.get("htm.dir.probes"));
    out["htm.vlog.entries"] = double(c.get("htm.vlog.entries"));
    out["detector.reads"] = double(c.get("detector.reads"));
    out["detector.writes"] = double(c.get("detector.writes"));
    out["detector.epoch_fast_ratio"] =
        ratio(c.get("detector.epoch_fast_hits"),
              c.get("detector.reads") + c.get("detector.writes"));
    out["detector.replay_checks"] =
        double(c.get("detector.replay_checks"));
    out["txrace.slow_regions"] = double(c.get("txrace.slow_regions"));
    out["txrace.window.replays"] =
        double(c.get("txrace.window.replays"));
    out["txrace.window.fallback_ratio"] =
        ratio(c.get("txrace.window.fallbacks"),
              c.get("txrace.window.replays"));
    out["txrace.window.watch_checks"] =
        double(c.get("txrace.window.watch_checks"));
    out["budget.windows"] = double(c.get("budget.windows"));
    out["budget.sampled_skips"] = double(c.get("budget.sampled_skips"));
    out["budget.site_cuts"] = double(c.get("budget.site_cuts"));

    const auto &b = c.buckets();
    uint64_t total = 0;
    for (uint64_t v : b)
        total += v;
    static const char *const kBuckets[] = {"base", "txn", "conflict",
                                           "capacity", "unknown",
                                           "check"};
    static_assert(std::size(kBuckets) == sim::kNumBuckets);
    for (size_t i = 0; i < sim::kNumBuckets; ++i) {
        out[std::string("cost.") + kBuckets[i]] = double(b[i]);
        out[std::string("cost.") + kBuckets[i] + "_share"] =
            ratio(b[i], total);
    }
}

// ----------------------------------------------------------- workloads

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build every AppModel the workload runs (the timed set-up). */
    virtual void setup(Tracer *t) = 0;
    /** Untimed reference work the measured passes need. */
    virtual void prepareMeasure(unsigned width) { (void)width; }
    /** One untraced pass on a pool of @p width threads. */
    virtual Pass measuredPass(unsigned width) = 0;
    /** The same work serially; spans around it when @p t is set. */
    virtual Pass serialPass(Tracer *t) = 0;
    /** Layer probes and counters over the workload's inputs. */
    virtual void attribute(Tracer *t, Layers &out,
                           std::vector<std::string> &failures) = 0;
    /** Counters this workload must see produced. */
    virtual std::vector<const char *> requiredCounters() const = 0;
    /** Add workload-level layer metrics (traced runs only, @p layers
     *  null otherwise) and the failures of checks made along the way. */
    virtual void
    finish(Layers *layers, std::vector<std::string> &failures) const
    {
        (void)layers;
        (void)failures;
    }
};

void
checkCounters(const Workload &w, const Counters &c,
              std::vector<std::string> &failures)
{
    for (const char *name : w.requiredCounters())
        if (!c.seen(name))
            failures.push_back(std::string("counter not produced: ") +
                               name);
}

const std::vector<const char *> kEngineCounters = {
    "machine.steps",        "machine.rollbacks",
    "htm.begins",           "htm.commits",
    "htm.aborts.conflict",  "htm.aborts.capacity",
    "htm.aborts.unknown",   "htm.dir.probes",
    "htm.dir.filter_hit",   "htm.vlog.entries",
    "detector.reads",       "detector.writes",
    "detector.epoch_fast_hits", "detector.replay_checks",
    "txrace.slow_regions",  "txrace.window.replays",
    "txrace.window.fallbacks", "txrace.window.watch_checks",
};

/** A workload that is a fixed list of (app, mode, seed) runs. */
class LaneWorkload : public Workload
{
  public:
    Pass
    measuredPass(unsigned width) override
    {
        return pass(width, nullptr);
    }

    Pass serialPass(Tracer *t) override { return pass(1, t); }

    void
    attribute(Tracer *t, Layers &out,
              std::vector<std::string> &failures) override
    {
        Counters c;
        uint64_t elided = 0;
        Scope root(t, "pass.attribution");
        for (size_t i = 0; i < jobs_.size(); ++i)
            attributeRun(t, i + 1, apps_[jobs_[i].app],
                         config(jobs_[i]), c, elided);
        counterLayers(c, elided, out);
        checkCounters(*this, c, failures);
    }

  protected:
    struct Job
    {
        size_t app = 0;
        core::RunMode mode = core::RunMode::Native;
        uint64_t seed = 1;
    };

    virtual core::RunConfig
    config(const Job &j) const
    {
        core::RunConfig rc;
        rc.mode = j.mode;
        rc.machine = apps_[j.app].machine;
        rc.machine.seed = j.seed;
        return rc;
    }

    /** Simulated metrics from one pass's run summaries (job order). */
    virtual Sim simulated(const std::vector<RunSummary> &runs) const = 0;

    void
    build(const std::vector<std::string> &names,
          const workloads::WorkloadParams &params, Tracer *t)
    {
        apps_.clear();
        for (const std::string &name : names) {
            Scope s(t, "workloads.build");
            apps_.push_back(workloads::makeApp(name, params));
        }
    }

    /** Races in @p runs (only the lanes @p scored selects count
     *  toward recall) scored against ground truth, per app. */
    template <class Scored>
    void
    score(const std::vector<RunSummary> &runs, Scored scored,
          Sim &sim) const
    {
        std::map<size_t, std::set<std::string>> found, anyLane;
        for (size_t i = 0; i < runs.size(); ++i) {
            for (const std::string &l : runs[i].labels) {
                anyLane[jobs_[i].app].insert(l);
                if (scored(jobs_[i]))
                    found[jobs_[i].app].insert(l);
            }
        }
        uint64_t planted = 0, matched = 0, detected = 0, fp = 0;
        std::set<size_t> appsRun;
        for (const Job &j : jobs_)
            appsRun.insert(j.app);
        for (size_t a : appsRun) {
            std::set<std::string> truth = truthOf(apps_[a].name);
            planted += truth.size();
            for (const std::string &l : found[a]) {
                ++detected;
                matched += truth.count(l);
            }
            for (const std::string &l : anyLane[a])
                fp += truth.count(l) ? 0 : 1;
        }
        sim.recall = ratio(matched, planted);
        sim.precision = detected == 0 ? 1.0 : ratio(matched, detected);
        sim.falsePositives = fp;
    }

    std::vector<workloads::AppModel> apps_;
    std::vector<Job> jobs_;

  private:
    Pass
    pass(unsigned width, Tracer *t)
    {
        std::vector<RunSummary> runs(jobs_.size());
        Scope root(t, "pass.serial");
        int64_t t0 = nowNs();
        closedLoop(jobs_.size(), width, [&](size_t i) {
            const Job &j = jobs_[i];
            const workloads::AppModel &app = apps_[j.app];
            core::RunConfig rc = config(j);
            int64_t r0 = nowNs();
            core::RunResult r;
            {
                Scope s(t, "core.runProgram", i + 1);
                r = core::runProgram(app.program, rc);
            }
            int64_t r1 = nowNs();
            runs[i] = summarize(app, r);
            runs[i].wallNs = r1 - r0;
        });
        Pass p;
        p.wallNs = nowNs() - t0;
        for (const RunSummary &s : runs) {
            ++p.runs;
            p.failed += s.ok ? 0 : 1;
            p.steps += s.steps;
            p.runNs.push_back(s.wallNs);
        }
        p.digest = digestOf(runs);
        p.sim = simulated(runs);
        return p;
    }
};

/** The paper's Table 1 protocol, long enough that the step loop
 *  dominates per-run fixed cost. */
class Table1Long : public LaneWorkload
{
  public:
    explicit Table1Long(uint64_t seed)
    {
        const auto &names = workloads::appNames();
        for (size_t a = 0; a < names.size(); ++a)
            for (uint64_t trial = 0; trial < kTableTrials; ++trial)
                for (core::RunMode m :
                     {core::RunMode::Native, core::RunMode::TSan,
                      core::RunMode::TxRaceProfLoopcut})
                    jobs_.push_back({a, m, seed * kTableTrials + trial});
    }

    void
    setup(Tracer *t) override
    {
        workloads::WorkloadParams params;
        params.scale = kTableScale;
        params.calibrate = true;
        build(workloads::appNames(), params, t);
    }

    std::vector<const char *>
    requiredCounters() const override
    {
        return kEngineCounters;
    }

  protected:
    Sim
    simulated(const std::vector<RunSummary> &runs) const override
    {
        Sim sim;
        // Per app, the overheads are averaged over the trials (the
        // paper's protocol), then the geomean is taken across apps.
        std::map<size_t, std::pair<double, double>> sums;
        for (size_t i = 0; i + 2 < runs.size(); i += 3) {
            double native = double(runs[i].totalCost);
            sums[jobs_[i].app].first +=
                double(runs[i + 1].totalCost) / native / kTableTrials;
            sums[jobs_[i].app].second +=
                double(runs[i + 2].totalCost) / native / kTableTrials;
        }
        std::vector<double> tsan, txr, err;
        for (const auto &[app, o] : sums) {
            double paper = apps_[app].paper.txraceOverhead;
            tsan.push_back(o.first);
            txr.push_back(o.second);
            err.push_back(std::max(o.second / paper, paper / o.second));
        }
        sim.tsanOverhead = geoMean(tsan);
        sim.txraceOverhead = geoMean(txr);
        sim.paperErrPct = (geoMean(err) - 1.0) * 100.0;
        score(runs,
              [](const Job &j) {
                  return j.mode == core::RunMode::TxRaceProfLoopcut;
              },
              sim);
        return sim;
    }
};

/** apache-stream in production-monitor mode: budget + governor. */
class MonitorStream : public LaneWorkload
{
  public:
    explicit MonitorStream(uint64_t seed)
    {
        for (uint64_t i = 0; i < kMonitorSeeds; ++i)
            jobs_.push_back({0, core::RunMode::TxRaceProfLoopcut,
                             seed * kMonitorSeeds + i});
    }

    void
    setup(Tracer *t) override
    {
        workloads::WorkloadParams params;
        params.scale = kMonitorScale;
        params.calibrate = true;
        build({"apache-stream"}, params, t);
    }

    /** The native cost of every seed, for the overhead metric. */
    void
    prepareMeasure(unsigned width) override
    {
        native_.assign(jobs_.size(), 0);
        closedLoop(jobs_.size(), width, [&](size_t i) {
            core::RunConfig rc = LaneWorkload::config(jobs_[i]);
            rc.mode = core::RunMode::Native;
            native_[i] =
                core::runProgram(apps_[0].program, rc).totalCost;
        });
    }

    std::vector<const char *>
    requiredCounters() const override
    {
        return {"machine.steps",    "detector.reads",
                "detector.writes",  "detector.epoch_fast_hits",
                "txrace.slow_regions", "budget.windows",
                "budget.sampled_skips", "budget.site_cuts"};
    }

  protected:
    core::RunConfig
    config(const Job &j) const override
    {
        core::RunConfig rc = LaneWorkload::config(j);
        rc.governor.enabled = true;
        rc.budget.enabled = true;
        rc.budget.budgetPct = kMonitorBudgetPct;
        return rc;
    }

    Sim
    simulated(const std::vector<RunSummary> &runs) const override
    {
        Sim sim;
        uint64_t windows = 0, over = 0;
        for (const RunSummary &s : runs) {
            windows += s.budgetWindows;
            over += s.budgetOver;
        }
        sim.budgetHeldFrac = 1.0 - ratio(over, windows);
        if (native_.size() == runs.size()) {
            std::vector<double> ovh, err;
            double paper = apps_[0].paper.txraceOverhead;
            for (size_t i = 0; i < runs.size(); ++i) {
                double o = double(runs[i].totalCost) / double(native_[i]);
                ovh.push_back(o);
                err.push_back(std::max(o / paper, paper / o));
            }
            sim.txraceOverhead = geoMean(ovh);
            sim.paperErrPct = (geoMean(err) - 1.0) * 100.0;
        }
        score(runs, [](const Job &) { return true; }, sim);
        return sim;
    }

  private:
    std::vector<uint64_t> native_;
};

/** Race hunting over the full registry through the campaign engine. */
class HuntSweep : public Workload
{
  public:
    explicit HuntSweep(uint64_t seed)
    {
        cfg_.apps = workloads::appNames();
        cfg_.seedsPerApp = kHuntSeedsPerApp;
        cfg_.masterSeed = seed;
        cfg_.strategy = "sweep";
        cfg_.mode = core::RunMode::TxRaceDynLoopcut;
        cfg_.slowpath = core::SlowPathKind::Window;
        cfg_.scale = 1;
        cfg_.calibrate = false;
        for (const std::string &app : cfg_.apps)
            truth_[app] = truthOf(app);
    }

    /** What every campaign worker builds on first touch. */
    void
    setup(Tracer *t) override
    {
        apps_.clear();
        workloads::WorkloadParams params;
        params.nWorkers = cfg_.workers;
        params.scale = cfg_.scale;
        params.calibrate = cfg_.calibrate;
        for (const std::string &name : cfg_.apps) {
            Scope s(t, "workloads.build");
            apps_.emplace(name, workloads::makeApp(name, params));
        }
    }

    /**
     * runCampaign does not expose per-run step counts or native
     * costs, so the plan's first round is run once directly: its step
     * total feeds sim_steps_per_s and its native costs the overhead.
     * The TxRace runs must agree with the campaign's totals.
     */
    void
    prepareMeasure(unsigned width) override
    {
        std::vector<campaign::JobSpec> specs = plan();
        std::vector<uint64_t> steps(specs.size()), cost(specs.size()),
            native(specs.size()), committed(specs.size());
        closedLoop(specs.size(), width, [&](size_t i) {
            const workloads::AppModel &app = apps_.at(specs[i].app);
            core::RunConfig rc = config(specs[i], app);
            core::RunResult r = core::runProgram(app.program, rc);
            steps[i] = r.stats.get("machine.steps");
            cost[i] = r.totalCost;
            committed[i] = r.stats.get("tx.committed");
            rc.mode = core::RunMode::Native;
            native[i] = core::runProgram(app.program, rc).totalCost;
        });
        planSteps_ = 0;
        planCommitted_ = 0;
        std::map<std::string, std::pair<double, double>> perApp;
        for (size_t i = 0; i < specs.size(); ++i) {
            planSteps_ += steps[i];
            planCommitted_ += committed[i];
            perApp[specs[i].app].first += double(cost[i]);
            perApp[specs[i].app].second += double(native[i]);
        }
        std::vector<double> ovh;
        for (const auto &[app, c] : perApp)
            ovh.push_back(c.first / c.second);
        overhead_ = geoMean(ovh);
    }

    Pass
    measuredPass(unsigned width) override
    {
        campaign::CampaignConfig cfg = cfg_;
        cfg.jobs = width;
        int64_t t0 = nowNs();
        campaign::CampaignResult result = campaign::runCampaign(cfg);
        Pass p;
        p.wallNs = nowNs() - t0;
        steals_ = result.timing.steals;
        dedupRatio_ = result.dedupRatio;
        std::ostringstream report;
        campaign::writeCampaignJson(report, cfg_, result);
        finish(p, result, report.str());
        for (const campaign::JobSpan &s : result.timing.spans)
            p.runNs.push_back(int64_t(s.wallMicros) * 1000);
        if (result.rounds != 1)
            failures_.push_back("sweep plan is not one round");
        if (planSteps_ && result.txCommitted != planCommitted_)
            failures_.push_back(
                "reference runs disagree with the campaign");
        return p;
    }

    /** The plan driven job by job through executeJob and
     *  Aggregator::add: the report must equal runCampaign's. */
    Pass
    serialPass(Tracer *t) override
    {
        Scope root(t, "pass.serial");
        int64_t t0 = nowNs();
        std::unique_ptr<campaign::Strategy> strategy =
            campaign::makeStrategy(cfg_.strategy);
        campaign::WorkerCache cache;
        campaign::Aggregator aggregator;
        std::vector<campaign::JobOutcome> history;
        uint64_t nextId = 0;
        Pass p;
        for (;;) {
            std::vector<campaign::JobSpec> jobs;
            {
                Scope s(t, "campaign.plan");
                jobs = strategy->nextRound(cfg_, history, nextId);
            }
            if (jobs.empty())
                break;
            for (const campaign::JobSpec &spec : jobs) {
                int64_t r0 = nowNs();
                campaign::JobOutcome o;
                {
                    Scope s(t, "campaign.execute", spec.id + 1);
                    o = campaign::executeJob(spec, cache,
                                             cfg_.calibrate,
                                             cfg_.slowpath);
                }
                p.runNs.push_back(nowNs() - r0);
                {
                    Scope s(t, "campaign.fold", spec.id + 1);
                    aggregator.add(o);
                }
                history.push_back(std::move(o));
            }
            std::sort(history.begin(), history.end(),
                      [](const auto &x, const auto &y) {
                          return x.spec.id < y.spec.id;
                      });
        }
        campaign::CampaignResult result;
        {
            Scope s(t, "campaign.finalize");
            result = aggregator.finalize(cfg_, truth_);
        }
        std::ostringstream report;
        {
            Scope s(t, "campaign.report");
            campaign::writeCampaignJson(report, cfg_, result);
        }
        p.wallNs = nowNs() - t0;
        finish(p, result, report.str());
        return p;
    }

    void
    attribute(Tracer *t, Layers &out,
              std::vector<std::string> &failures) override
    {
        Counters c;
        uint64_t elided = 0;
        {
            Scope root(t, "pass.attribution");
            for (const campaign::JobSpec &spec : plan()) {
                const workloads::AppModel &app = apps_.at(spec.app);
                attributeRun(t, spec.id + 1, app, config(spec, app), c,
                             elided);
            }
        }
        counterLayers(c, elided, out);
        checkCounters(*this, c, failures);
    }

    std::vector<const char *>
    requiredCounters() const override
    {
        return kEngineCounters;
    }

    void
    finish(Layers *layers,
           std::vector<std::string> &failures) const override
    {
        if (layers) {
            (*layers)["campaign.steals"] = double(steals_);
            (*layers)["campaign.dedup_ratio"] = dedupRatio_;
        }
        failures.insert(failures.end(), failures_.begin(),
                        failures_.end());
    }

  private:
    std::vector<campaign::JobSpec>
    plan() const
    {
        uint64_t nextId = 0;
        return campaign::makeStrategy(cfg_.strategy)
            ->nextRound(cfg_, {}, nextId);
    }

    /** The RunConfig campaign::executeJob builds for @p spec. */
    core::RunConfig
    config(const campaign::JobSpec &spec,
           const workloads::AppModel &app) const
    {
        core::RunConfig rc;
        rc.mode = spec.mode;
        rc.machine = app.machine;
        rc.machine.seed = spec.seed;
        rc.machine.interruptPerStep *= spec.interruptScale;
        rc.governor.enabled = spec.governor;
        rc.slowpath = cfg_.slowpath;
        return rc;
    }

    void
    finish(Pass &p, const campaign::CampaignResult &result,
           const std::string &report) const
    {
        p.runs = result.runs;
        p.failed = result.errors;
        p.steps = planSteps_;
        p.digest = core::fnv1a64(report);
        uint64_t expected = 0, matched = 0, found = 0, fp = 0;
        for (const campaign::AppScore &s : result.scores) {
            expected += s.expected;
            matched += s.matched;
            found += s.found;
            fp += s.falsePositives;
        }
        p.sim.recall = ratio(matched, expected);
        p.sim.precision = found == 0 ? 1.0 : ratio(found - fp, found);
        p.sim.falsePositives = fp;
        if (planSteps_)
            p.sim.txraceOverhead = overhead_;
    }

    campaign::CampaignConfig cfg_;
    std::map<std::string, std::set<std::string>> truth_;
    std::map<std::string, workloads::AppModel> apps_;
    uint64_t planSteps_ = 0;
    uint64_t planCommitted_ = 0;
    double overhead_ = NAN;
    uint64_t steals_ = 0;
    double dedupRatio_ = 0.0;
    std::vector<std::string> failures_;
};

// -------------------------------------------------------------- output

/** Full precision (telemetry::JsonWriter rounds to six digits). */
void
writeNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

template <class T>
void
writeArray(std::ostream &os, const std::vector<T> &v)
{
    os << "[";
    for (size_t i = 0; i < v.size(); ++i)
        os << (i ? "," : "") << v[i];
    os << "]";
}

struct Args
{
    std::string workload;
    std::string out;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_e2e: %s\nusage: perfbench_e2e --workload "
                 "hunt-sweep|table1-long|monitor-stream --seed N "
                 "--seconds S --trace 0|1 --out FILE\n",
                 msg);
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        const char *v = argv[i + 1];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--out")
            a.out = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (flag == "--trace")
            a.trace = std::strcmp(v, "1") == 0;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && !a.out.empty() &&
           a.seconds > 0.0;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "hunt-sweep")
        return std::make_unique<HuntSweep>(seed);
    if (name == "table1-long")
        return std::make_unique<Table1Long>(seed);
    if (name == "monitor-stream")
        return std::make_unique<MonitorStream>(seed);
    return nullptr;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    if (!parseArgs(argc, argv, args))
        return usage("bad arguments");
    std::unique_ptr<Workload> w = makeWorkload(args.workload, args.seed);
    if (!w)
        return usage("unknown workload");
    unsigned width = std::max(
        1u, std::min(4u, std::thread::hardware_concurrency()));

    Tracer tracer;
    Tracer *t = args.trace ? &tracer : nullptr;
    std::vector<std::string> failures;

    std::vector<int64_t> setupNs;
    for (int i = 0; i < kSetupRepeats; ++i) {
        Scope s(t, "setup");
        int64_t t0 = nowNs();
        w->setup(t);
        setupNs.push_back(nowNs() - t0);
    }

    std::vector<Pass> passes;
    std::vector<int64_t> plainNs, tracedNs;
    Layers layers;
    // The digest covers every simulated input of the metrics (for
    // hunt-sweep, the report bytes), so equal digests mean equal
    // simulated metrics.
    auto sameAs = [&](const Pass &ref, const Pass &p, const char *what) {
        if (p.digest != ref.digest)
            failures.push_back(std::string("simulated results differ: ") +
                               what);
    };

    const int64_t measureNs = int64_t(args.seconds * 1e9);
    if (!args.trace) {
        w->prepareMeasure(width);
        size_t samples = 0;
        int64_t start = nowNs();
        int64_t deadline = start + measureNs;
        // A hard cap keeps a pathologically slow build within the
        // caller's time limit; run.py rejects too few samples.
        int64_t cap = start + int64_t(args.seconds * 3e9);
        while ((nowNs() < deadline || samples < kMinRunSamples ||
                passes.size() < 2) &&
               nowNs() < cap) {
            passes.push_back(w->measuredPass(width));
            samples += passes.back().runNs.size();
            sameAs(passes.front(), passes.back(), "across repeats");
        }
    } else {
        int64_t deadline = nowNs() + measureNs;
        w->attribute(t, layers, failures);
        // The reference is the parallel measured pass; the serial
        // untraced and traced passes must reproduce it exactly.
        Pass ref = w->measuredPass(width);
        passes.push_back(ref);
        // Pairs alternate which side runs first.
        for (size_t pair = 0; pair == 0 || nowNs() < deadline; ++pair) {
            Pass plain, traced;
            if (pair % 2 == 0) {
                plain = w->serialPass(nullptr);
                traced = w->serialPass(t);
            } else {
                traced = w->serialPass(t);
                plain = w->serialPass(nullptr);
            }
            sameAs(ref, plain, "untraced serial vs measured");
            sameAs(ref, traced, "traced vs untraced");
            plainNs.push_back(plain.wallNs);
            tracedNs.push_back(traced.wallNs);
            passes.push_back(std::move(plain));
            passes.push_back(std::move(traced));
        }
        // The recorder's own cost per span, free of the host's drift
        // that the pair ratios above carry.
        constexpr int kProbeSpans = 100000;
        Tracer probe;
        int64_t p0 = nowNs();
        for (int i = 0; i < kProbeSpans; ++i)
            Scope s(&probe, "probe", i);
        layers["trace.span_ns"] = double(nowNs() - p0) / kProbeSpans;
    }
    w->finish(args.trace ? &layers : nullptr, failures);
    if (std::any_of(passes.begin(), passes.end(), [](const Pass &p) {
            return p.sim.falsePositives != 0;
        }))
        failures.push_back("false positives reported");

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::ofstream os(args.out);
    if (!os) {
        std::fprintf(stderr, "perfbench_e2e: cannot write %s\n",
                     args.out.c_str());
        return 1;
    }
    os << "{\"workload\":" << quoted(args.workload)
       << ",\"seed\":" << args.seed
       << ",\"trace\":" << (args.trace ? "true" : "false")
       << ",\"pool_width\":" << width << ",\"setup_ns\":";
    writeArray(os, setupNs);
    os << ",\"peak_rss_kb\":" << ru.ru_maxrss << ",\"passes\":[";
    for (size_t i = 0; i < passes.size(); ++i) {
        const Pass &p = passes[i];
        os << (i ? "," : "") << "{\"wall_ns\":" << p.wallNs
           << ",\"runs\":" << p.runs << ",\"failed\":" << p.failed
           << ",\"steps\":" << p.steps << ",\"digest\":\"" << std::hex
           << p.digest << std::dec << "\",\"run_ns\":";
        writeArray(os, p.runNs);
        os << "}";
    }
    os << "],\"sim\":{";
    if (!passes.empty()) {
        const Sim &s = passes.front().sim;
        std::pair<const char *, double> fields[] = {
            {"txrace_overhead_geomean", s.txraceOverhead},
            {"tsan_overhead_geomean", s.tsanOverhead},
            {"paper_err_pct", s.paperErrPct},
            {"budget_held_frac", s.budgetHeldFrac},
            {"recall", s.recall},
            {"precision", s.precision},
        };
        for (size_t i = 0; i < std::size(fields); ++i) {
            os << (i ? "," : "") << quoted(fields[i].first) << ":";
            writeNumber(os, fields[i].second);
        }
        os << ",\"false_positives\":" << s.falsePositives;
    }
    os << "},\"layers\":{";
    size_t n = 0;
    for (const auto &[name, v] : layers) {
        os << (n++ ? "," : "") << quoted(name) << ":";
        writeNumber(os, v);
    }
    os << "},\"overhead\":{\"plain_ns\":";
    writeArray(os, plainNs);
    os << ",\"traced_ns\":";
    writeArray(os, tracedNs);
    os << "},\"failures\":[";
    for (size_t i = 0; i < failures.size(); ++i)
        os << (i ? "," : "") << quoted(failures[i]);
    os << "],\"spans\":[";
    const std::vector<Span> &spans = tracer.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "[" << s.id << "," << s.parent << ","
           << s.run << "," << quoted(s.name) << "," << s.startNs << ","
           << s.endNs << "]";
    }
    os << "]}\n";
    os.close();
    if (!os) {
        std::fprintf(stderr, "perfbench_e2e: write failed\n");
        return 1;
    }
    return 0;
}
