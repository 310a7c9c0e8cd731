/**
 * @file
 * In-memory span recorder for the end-to-end benchmark.
 *
 * Spans are recorded from the benchmark's own code around calls into
 * the library's public layers; the library itself is not
 * instrumented. A span has a name, start and end (steady clock,
 * nanoseconds), the span that was open when it began (its parent)
 * and a run id shared by every span of one simulated run (0 for
 * pass-level spans). Spans are only ever opened and closed on one
 * thread, strictly nested, so a parent's self time is its duration
 * minus its children's.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    uint64_t id = 0;      ///< 1-based; 0 means "no parent"
    uint64_t parent = 0;
    uint64_t run = 0;
    const char *name = ""; ///< static string
    int64_t startNs = 0;
    int64_t endNs = 0;
};

class Tracer
{
  public:
    uint64_t
    open(const char *name, uint64_t run)
    {
        Span s;
        s.id = spans_.size() + 1;
        s.parent = stack_.empty() ? 0 : stack_.back();
        s.run = run;
        s.name = name;
        spans_.push_back(s);
        stack_.push_back(s.id);
        // Read the clock last so the bookkeeping above is charged to
        // the parent, not to this span.
        spans_.back().startNs = nowNs();
        return s.id;
    }

    void
    close(uint64_t id)
    {
        int64_t end = nowNs();
        spans_[id - 1].endNs = end;
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<uint64_t> stack_;
};

/** RAII span; a null tracer records nothing (the untraced path). */
class Scope
{
  public:
    Scope(Tracer *t, const char *name, uint64_t run = 0)
        : t_(t), id_(t ? t->open(name, run) : 0)
    {
    }
    ~Scope()
    {
        if (t_)
            t_->close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t_;
    uint64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
