/**
 * @file
 * Pre-decoded program representation for the threaded-code step loop.
 *
 * At Machine construction every ir::Instruction is decoded once into a
 * flat, execute-ready DecodedOp: the handler function pointer is
 * resolved (threaded-code dispatch — no opcode switch on the hot
 * path), the cost-model charge is pre-folded, the address expression
 * is pre-classified by shape (so evaluation is branch-light), and the
 * LoopBegin zero-trip jump target is inlined. Decode also proves
 * statically that a loop-indexed address sits inside at least
 * loopDepth+1 loops. A constant address needs no check at all: the
 * finalized program's structural validation already rejects any
 * access base outside the address space, so only the dynamic shapes
 * carry a bounds check (raising the structured BadAccess run error).
 *
 * Decode is per-Machine, not per-Program, because the folded charges
 * depend on the machine's CostModel. The DecodedOp keeps a pointer to
 * its source instruction for the policy hooks, which is stable because
 * function bodies never move during a run.
 */

#ifndef TXRACE_SIM_DECODE_HH
#define TXRACE_SIM_DECODE_HH

#include <cstdint>
#include <vector>

#include "ir/program.hh"
#include "sim/costmodel.hh"

namespace txrace::sim {

class Machine;
struct ThreadContext;
struct DecodedOp;

/** Threaded-code handler: executes one decoded op for @p ctx. */
using ExecFn = void (*)(Machine &, ThreadContext &, const DecodedOp &);

/** One execute-ready instruction. */
struct DecodedOp
{
    /** Resolved handler (opcode × address shape × load/store). */
    ExecFn fn = nullptr;
    /** Source instruction (policy hooks take the ir form). */
    const ir::Instruction *ins = nullptr;
    /** Pre-folded base-bucket charge (cost model applied at decode). */
    uint64_t cost = 0;
    uint64_t arg0 = 0;
    uint64_t arg1 = 0;

    /** @name Address expression, flattened */
    /** @{ */
    ir::Addr base = 0;
    uint64_t threadStride = 0;
    uint64_t loopStride = 0;
    uint64_t randomStride = 0;
    uint64_t randomCount = 0;
    uint32_t loopDepth = 0;
    /** @} */

    /** LoopBegin only: pc just past the matching LoopEnd (the
     *  zero-trip jump target, resolved from Instruction::match). */
    uint32_t jump = 0;
};

/** A decoded function body, indexed by pc like the ir body. */
using DecodedFunction = std::vector<DecodedOp>;

/** All functions of a program, decoded. */
struct DecodedProgram
{
    std::vector<DecodedFunction> funcs;
};

/**
 * Resolve the handler for @p ins, whose address expression has shape
 * @p shape. Defined in machine.cc next to the handler bodies.
 */
ExecFn resolveHandler(const ir::Instruction &ins, ir::AddrShape shape);

/**
 * Decode every function of @p prog under cost model @p cost. The
 * program must be finalized. fatal()s on structurally invalid
 * loop-indexed addresses (the static form of the old per-execution
 * nesting check).
 */
DecodedProgram decodeProgram(const ir::Program &prog,
                             const CostModel &cost);

} // namespace txrace::sim

#endif // TXRACE_SIM_DECODE_HH
