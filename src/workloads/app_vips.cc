/**
 * @file
 * vips: image transformation pipeline — the paper's extreme case
 * (TSan 1195x) and its most interesting false-negative study (§8.3,
 * Fig. 10): 112 distinct static races on row-boundary pixels between
 * adjacent workers, each with a narrow detection window, so a single
 * TxRace run finds a schedule-dependent subset (~79 in the paper)
 * and the union over runs converges to all 112.
 *
 * Structure, per race site: a batch of jittered, I/O-terminated work
 * chunks (each one transaction — vips's transaction count dwarfs its
 * conflict count), then one small boundary region that writes the
 * worker's own boundary slot and reads the neighbor's. The per-site
 * queue handoff of the real pipeline is modeled by a barrier, which
 * keeps workers loosely aligned; the chunk-length jitter plus
 * scheduler noise then decide whether the two boundary transactions
 * actually overlap — a narrow, schedule-sensitive window. Every 16th
 * site also streams a tile flush whose same-set strided stores
 * overflow the transactional write set (capacity aborts; loop-cut
 * target).
 */

#include <algorithm>

#include "ir/builder.hh"
#include "workloads/apps.hh"
#include "workloads/idioms.hh"

namespace txrace::workloads {

ir::Program
buildVips(const WorkloadParams &p)
{
    using ir::AddrExpr;
    ir::ProgramBuilder b;
    const uint32_t W = p.nWorkers;

    constexpr size_t kSites = 112;
    NeighborSites sites(b, "row-boundaries", kSites,
                        std::max<uint32_t>(8, W));
    ir::Addr rows = b.alloc("image-rows", (W + 2) * 512);
    constexpr uint64_t kCapRows = 12;
    ir::Addr tile = b.alloc("tile-cache",
                            kCapRows * 4096 + (W + 1) * 64, 64);
    ir::Addr swap = allocBurst(b, "buffer-swap");

    ir::FuncId worker = b.beginFunction("worker");
    for (size_t s = 0; s < kSites; ++s) {
        // Work chunks: each ends at tile I/O, i.e. one region each.
        b.loop(12, [&] {
            b.loopJitter(5, 2, [&] {
                AddrExpr row = AddrExpr::perThread(rows, 512);
                row.loopStride = 8;
                b.load(row, "row pixel");
                b.store(row, "row pixel");
                b.compute(1);
            });
            b.syscall(1);
        });
        if (s % 16 == 15) {
            // Tile flush: same-set strided stores (capacity aborts
            // that the loop-cut optimization learns to avoid).
            b.loop(kCapRows, [&] {
                AddrExpr e = AddrExpr::perThread(tile, 64);
                e.loopStride = 4096;
                b.store(e, "tile line");
            });
            b.syscall(1);
        }
        if (s % 28 == 27) {
            // Buffer swap: irregular unrolled stores (loop-cut
            // cannot help here).
            emitCapacityBurst(b, swap);
            b.syscall(1);
        }
        // Queue handoff for this image region happens just before
        // the boundary exchange; the jittered warm-up then decides
        // how well the two neighbors' boundary transactions line up.
        b.barrier(0, W);
        b.loopJitter(2, 5, [&] { b.compute(4); });
        // Boundary region: write own slot first, read the neighbor's
        // last, with padding in between — the transaction holds the
        // written line until commit, so the detection window is the
        // region length.
        b.store(sites.writeExpr(s),
                "boundary write " + std::to_string(s));
        AddrExpr head = AddrExpr::perThread(rows, 512);
        for (int k = 0; k < 4; ++k)
            b.load(head, "row head");
        b.compute(20);
        b.load(sites.readExpr(s),
               "boundary read " + std::to_string(s));
        b.syscall(1);
    }
    b.endFunction();

    b.beginFunction("main");
    b.spawn(worker, W);
    b.joinAll();
    b.endFunction();
    return b.build();
}

} // namespace txrace::workloads
