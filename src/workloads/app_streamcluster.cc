/**
 * @file
 * streamcluster: online clustering with barrier-separated phases and
 * a tight, system-call-bearing loop (the other app the paper singles
 * out for short-transaction management cost, Fig. 7).
 *
 * Per phase: six read-only distance-evaluation regions (the bulk of
 * the memory work, almost never conflicting) and one tiny
 * accumulator+center region. The per-worker cost accumulators are
 * packed 8 bytes apart, so all workers' slots share one cache line:
 * heavy false-sharing HTM conflicts with no race behind them (the
 * paper's second-highest conflict-abort count), which the slow path
 * filters cheaply because the conflicting region is small. Four
 * ordinary planted races on unsynchronized cluster-center updates
 * (found — accesses recur every phase).
 */

#include <algorithm>

#include "ir/builder.hh"
#include "workloads/apps.hh"
#include "workloads/idioms.hh"

namespace txrace::workloads {

ir::Program
buildStreamcluster(const WorkloadParams &p)
{
    using ir::AddrExpr;
    ir::ProgramBuilder b;
    const uint32_t W = p.nWorkers;

    constexpr size_t kSites = 4;
    NeighborSites sites(b, "cluster-centers", kSites,
                        std::max<uint32_t>(8, W));
    ir::Addr points = b.alloc("points", 2048 * 8);
    ir::Addr acc = allocFalseSharingSlots(b, "cost-accumulators",
                                          std::max<uint32_t>(8, W),
                                          40);

    ir::FuncId worker = b.beginFunction("worker");
    b.loop(4 * p.scale, [&] {
        // Fifteen plain evaluation phases...
        b.loop(15, [&] {
            b.barrier(0, W);
            // Distance evaluation: read-only shared point data, in
            // six jittered, stream-ingest-terminated regions. The
            // jitter de-aligns the workers so the accumulator flush
            // at the phase end only sometimes overlaps.
            b.loop(6, [&] {
                b.loopJitter(4, 6, [&] {
                    b.load(AddrExpr::randomIn(points, 2048, 8),
                           "point");
                    b.compute(2);
                });
                b.syscall(1);
            });
            // Tiny accumulator flush: all workers' slots share one
            // cache line — frequent false-sharing conflicts with no
            // race, cheap to re-check on the slow path.
            b.store(falseSharingSlot(acc, 40), "cost accumulator");
            b.loop(4, [&] {
                b.load(AddrExpr::randomIn(points, 2048, 8), "point");
            });
            b.load(falseSharingSlot(acc, 40), "cost accumulator");
            b.syscall(1);
        });
        // ...then one recentering phase carrying the four races.
        b.barrier(1, W);
        for (size_t s = 0; s < kSites; ++s)
            b.store(sites.writeExpr(s),
                    "center write " + std::to_string(s));
        b.store(falseSharingSlot(acc, 40), "cost accumulator");
        for (size_t s = 0; s < kSites; ++s)
            b.load(sites.readExpr(s),
                   "center read " + std::to_string(s));
        b.syscall(1);
    });
    b.endFunction();

    b.beginFunction("main");
    b.spawn(worker, W);
    b.joinAll();
    b.endFunction();
    return b.build();
}

} // namespace txrace::workloads
