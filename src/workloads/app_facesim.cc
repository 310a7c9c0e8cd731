/**
 * @file
 * facesim: physics simulation of a face mesh; long memory-heavy
 * phases (the paper's second-highest TSan overhead, 36.59x) broken
 * into many allocation/IO-terminated regions.
 *
 * Nine planted races: eight ordinary neighbor-partition boundary
 * races touched every timestep in one small boundary region (found),
 * plus one initialization-idiom race on a thread-pool structure
 * initialized by the main thread at startup and read at the end
 * (missed by overlap-based detection) — reproducing the paper's
 * 8-of-9. A per-frame stress-assembly region streams same-set
 * strided stores that overflow the transactional write set
 * (capacity aborts; loop-cut target).
 */

#include <algorithm>

#include "ir/builder.hh"
#include "workloads/apps.hh"
#include "workloads/idioms.hh"

namespace txrace::workloads {

ir::Program
buildFacesim(const WorkloadParams &p)
{
    using ir::AddrExpr;
    ir::ProgramBuilder b;
    const uint32_t W = p.nWorkers;

    constexpr size_t kSites = 8;
    NeighborSites sites(b, "partition-boundaries", kSites,
                        std::max<uint32_t>(8, W));
    InitIdiomSites init(b, "threadpool-struct", 1);
    // Per-worker mesh partitions (bulk work is race-free).
    ir::Addr mesh = b.alloc("face-mesh", (W + 1) * 2048);
    auto mesh_access = [&] {
        AddrExpr e;
        e.base = mesh;
        e.threadStride = 2048;
        e.randomCount = 256;
        e.randomStride = 8;
        return e;
    };
    constexpr uint64_t kCapRows = 11;
    ir::Addr stress = b.alloc("stress-matrix",
                              kCapRows * 4096 + (W + 1) * 64, 64);

    ir::FuncId worker = b.beginFunction("worker");
    b.loop(12 * p.scale, [&] {
        // Solver sweeps: eight regions of dense mesh work per frame.
        b.loop(8, [&] {
            b.loop(6, [&] {
                b.load(mesh_access(), "node");
                b.store(mesh_access(), "node");
                b.compute(2);
            });
            b.syscall(1);
        });
        // Boundary-exchange region: writes first, neighbor reads
        // last; one small transaction per frame carrying the races.
        for (size_t s = 0; s < kSites; ++s)
            b.store(sites.writeExpr(s),
                    "boundary write " + std::to_string(s));
        for (int k = 0; k < 4; ++k)
            b.load(mesh_access(), "node");
        for (size_t s = 0; s < kSites; ++s)
            b.load(sites.readExpr(s),
                   "boundary read " + std::to_string(s));
        b.syscall(1);
        // Stress assembly: same-set strided stores (capacity).
        b.loop(kCapRows, [&] {
            AddrExpr e = AddrExpr::perThread(stress, 64);
            e.loopStride = 4096;
            b.store(e, "stress row");
        });
        b.barrier(0, W);
    });
    // Collision-mesh rebuild: irregular unrolled stores (capacity
    // aborts the loop-cut optimization cannot remove).
    ir::Addr rebuild = allocBurst(b, "collision-rebuild");
    b.loop(2 * p.scale, [&] {
        emitCapacityBurst(b, rebuild);
        b.syscall(1);
    });
    b.compute(150);
    for (int k = 0; k < 6; ++k)
        b.load(mesh_access(), "node");
    init.emitLateRead(b);
    b.endFunction();

    b.beginFunction("main");
    b.spawn(worker, W);
    for (int k = 0; k < 6; ++k)
        b.load(mesh_access(), "node");
    init.emitInit(b);
    b.joinAll();
    b.endFunction();
    return b.build();
}

} // namespace txrace::workloads
