/**
 * @file
 * x264: frame-parallel video encoding. 64 distinct static races on
 * reference-frame rows read from the neighboring worker without
 * synchronization — but unlike vips, each site is touched in *every*
 * frame with wide windows, so the accesses reliably overlap and
 * TxRace finds all 64 (paper Table 1). The recurring conflicts keep
 * a substantial share of execution on the slow path, which is why
 * the paper's x264 sees the smallest relative gain over TSan
 * (5.6x vs 6.45x).
 */

#include <algorithm>

#include "ir/builder.hh"
#include "workloads/apps.hh"
#include "workloads/idioms.hh"

namespace txrace::workloads {

ir::Program
buildX264(const WorkloadParams &p)
{
    using ir::AddrExpr;
    ir::ProgramBuilder b;
    const uint32_t W = p.nWorkers;

    constexpr size_t kSites = 64;
    NeighborSites sites(b, "ref-rows", kSites,
                        std::max<uint32_t>(8, W));
    ir::Addr mb = b.alloc("macroblocks", (W + 2) * 512);

    ir::FuncId worker = b.beginFunction("worker");
    b.loop(4 * p.scale, [&] {
        // Motion estimation on own macroblock rows: eight
        // bitstream-flush-terminated regions per frame.
        b.loop(8, [&] {
            b.loop(4, [&] {
                AddrExpr row = AddrExpr::perThread(mb, 512);
                row.loopStride = 8;
                b.load(row, "mb");
                b.store(row, "mb");
                b.compute(2);
            });
            b.syscall(1);
        });
        // Reference exchange: four regions of 16 sites each.
        for (int g = 0; g < 4; ++g) {
            for (int s = g * 16; s < (g + 1) * 16; ++s)
                b.store(sites.writeExpr(s),
                        "ref write " + std::to_string(s));
            for (int s = g * 16; s < (g + 1) * 16; ++s)
                b.load(sites.readExpr(s),
                       "ref read " + std::to_string(s));
            b.syscall(1);
        }
    });
    b.endFunction();

    b.beginFunction("main");
    b.spawn(worker, W);
    b.joinAll();
    b.endFunction();
    return b.build();
}

} // namespace txrace::workloads
