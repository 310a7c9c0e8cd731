/**
 * @file
 * dedup: compression pipeline (chunk → hash/compress) over semaphore
 * queues. No data races (the paper reports zero), but a packed
 * shared hash-bucket counter array produces false-sharing conflicts,
 * and occasional large chunk writes overflow the transactional write
 * set (moderate capacity aborts).
 */

#include <algorithm>

#include "ir/builder.hh"
#include "workloads/apps.hh"
#include "workloads/idioms.hh"

namespace txrace::workloads {

ir::Program
buildDedup(const WorkloadParams &p)
{
    using ir::AddrExpr;
    ir::ProgramBuilder b;
    const uint32_t W = p.nWorkers;
    const uint32_t n_a = std::max(1u, W / 2);
    const uint32_t n_b = std::max(1u, W - n_a);
    const uint64_t chunks = 120 * p.scale;
    const uint64_t per_a = chunks / n_a;
    const uint64_t per_b = (per_a * n_a) / n_b;

    ir::Addr table = b.alloc("hash-table", 2048 * 8);
    ir::Addr buckets = allocFalseSharingSlots(b, "bucket-hits",
                                              std::max<uint32_t>(8, W));
    constexpr uint64_t kCapRows = 11;
    ir::Addr out = b.alloc("chunk-out",
                           kCapRows * 4096 + (W + 1) * 64, 64);

    constexpr uint64_t kQ0 = 0, kQ1 = 1;

    ir::FuncId chunker = b.beginFunction("chunker");
    b.loop(per_a, [&] {
        b.wait(kQ0);
        b.loop(6, [&] {
            b.load(AddrExpr::randomIn(table, 2048, 8), "fingerprint");
        });
        b.store(falseSharingSlot(buckets), "bucket hit");
        b.signal(kQ1);
    });
    b.endFunction();

    ir::FuncId compressor = b.beginFunction("compress");
    b.loop(per_b / 2, [&] {
        b.loop(2, [&] {
            b.wait(kQ1);
            b.compute(12);
            b.loop(8, [&] {
                b.load(AddrExpr::randomIn(table, 2048, 8), "digest");
            });
        });
        // Output flush: same-set strided stores (capacity target).
        b.loop(kCapRows, [&] {
            AddrExpr e = AddrExpr::perThread(out, 64);
            e.loopStride = 4096;
            b.store(e, "compressed block");
        });
        b.syscall(2);  // write to output file
    });
    // Container finalization: irregular unrolled stores.
    ir::Addr final_burst = allocBurst(b, "container-finalize");
    b.loop(2 * p.scale, [&] {
        emitCapacityBurst(b, final_burst);
        b.syscall(1);
    });
    b.endFunction();

    b.beginFunction("main");
    b.spawn(chunker, n_a);
    b.spawn(compressor, n_b);
    b.loop(per_a * n_a, [&] { b.signal(kQ0); });
    b.joinAll();
    b.endFunction();
    return b.build();
}

} // namespace txrace::workloads
