/**
 * @file
 * bodytrack: particle-filter body tracking with per-frame barriers.
 *
 * Eight planted races as in the paper: six ordinary races on
 * neighbor-worker particle weights, exchanged in one small region per
 * frame (wide windows; found), and two initialization-idiom races —
 * the main thread initializes shared pose structures right after
 * spawning the workers, which read them only at the very end of the
 * run; happens-before detection flags them, overlap-based detection
 * cannot (§8.3) — reproducing TxRace's 6-of-8.
 *
 * bodytrack also models the paper's highest unknown-abort pressure
 * (2M unknown aborts in Table 1) via an elevated per-app interrupt
 * rate, configured in the registry.
 */

#include <algorithm>

#include "ir/builder.hh"
#include "workloads/apps.hh"
#include "workloads/idioms.hh"

namespace txrace::workloads {

ir::Program
buildBodytrack(const WorkloadParams &p)
{
    using ir::AddrExpr;
    ir::ProgramBuilder b;
    const uint32_t W = p.nWorkers;

    constexpr size_t kSites = 6;
    NeighborSites sites(b, "particle-weights", kSites,
                        std::max<uint32_t>(8, W));
    InitIdiomSites init(b, "pose-structs", 2);
    ir::Addr model = b.alloc("body-model", 1024 * 8);
    ir::Addr part = b.allocPrivate("particles", (W + 1) * 512);

    ir::FuncId worker = b.beginFunction("worker");
    b.loop(30 * p.scale, [&] {
        // Particle evaluation in five image-IO-terminated regions.
        b.loop(5, [&] {
            b.loop(5, [&] {
                b.load(AddrExpr::randomIn(model, 1024, 8), "model");
                b.load(AddrExpr::randomIn(model, 1024, 8), "model");
                AddrExpr e = AddrExpr::perThread(part, 512);
                e.loopStride = 8;
                b.storePrivate(e);
                b.compute(3);
            });
            b.syscall(1);
        });
        // Weight exchange: one small region with the six races.
        for (size_t s = 0; s < kSites; ++s)
            b.store(sites.writeExpr(s),
                    "weight write " + std::to_string(s));
        for (int k = 0; k < 3; ++k)
            b.load(AddrExpr::randomIn(model, 1024, 8), "model");
        for (size_t s = 0; s < kSites; ++s)
            b.load(sites.readExpr(s),
                   "weight read " + std::to_string(s));
        b.barrier(0, W);
    });
    // Late phase: read the pose structures main initialized at the
    // start, padded with enough instrumented work that the region
    // stays a (fast) transaction rather than a slow-forced small one.
    b.compute(200);
    for (int k = 0; k < 6; ++k)
        b.load(AddrExpr::randomIn(model, 1024, 8), "model");
    init.emitLateRead(b);
    b.endFunction();

    b.beginFunction("main");
    b.spawn(worker, W);
    // Initialization-idiom: unsynchronized, far from the late reads.
    for (int k = 0; k < 6; ++k)
        b.load(AddrExpr::randomIn(model, 1024, 8), "model");
    init.emitInit(b);
    b.joinAll();
    b.endFunction();
    return b.build();
}

} // namespace txrace::workloads
