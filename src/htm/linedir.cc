#include "htm/linedir.hh"

#include "support/log.hh"

namespace txrace::htm {

LineDirectory::LineDirectory(size_t initialCapacity)
    : cells_(initialCapacity), mask_(initialCapacity - 1)
{
    if (initialCapacity == 0 ||
        (initialCapacity & (initialCapacity - 1)) != 0)
        fatal("LineDirectory: capacity must be a nonzero power of two");
}

LineDirectory::Entry &
LineDirectory::insertFresh(uint64_t line)
{
    size_t idx = mix(line) & mask_;
    uint64_t len = 0;
    while (cells_[idx].epoch == epoch_) {
        idx = (idx + 1) & mask_;
        ++len;
    }
    Cell &c = cells_[idx];
    c.line = line;
    c.epoch = epoch_;
    c.e = Entry{};
    ++occupied_;
    if (occupied_ > stats_.occupiedPeak)
        stats_.occupiedPeak = occupied_;
    recordProbe(len);
    return c.e;
}

void
LineDirectory::bulkClear()
{
    ++epoch_;
    if (epoch_ == 0) {
        // Epoch wraparound: stale cells stamped with the pre-wrap
        // value would otherwise read as valid. Pay one table wipe
        // every 2^32 clears.
        for (Cell &c : cells_)
            c = Cell{};
        epoch_ = 1;
    }
    occupied_ = 0;
    ++stats_.epochClears;
}

void
LineDirectory::rehash()
{
    // Count keys that still hold members; dead keys (all bits cleared
    // by commit/abort walks) are dropped instead of copied.
    size_t live = 0;
    for (const Cell &c : cells_)
        if (c.epoch == epoch_ && (c.e.readers | c.e.writers))
            ++live;
    size_t newCap = cells_.size();
    while ((live + 1) * 2 > newCap)
        newCap *= 2;

    std::vector<Cell> old = std::move(cells_);
    cells_.assign(newCap, Cell{});
    mask_ = newCap - 1;
    uint32_t oldEpoch = epoch_;
    epoch_ = 1;
    occupied_ = 0;
    for (const Cell &c : old) {
        if (c.epoch != oldEpoch || !(c.e.readers | c.e.writers))
            continue;
        size_t idx = mix(c.line) & mask_;
        while (cells_[idx].epoch == epoch_)
            idx = (idx + 1) & mask_;
        cells_[idx].line = c.line;
        cells_[idx].epoch = epoch_;
        cells_[idx].e = c.e;
        ++occupied_;
    }
    if (occupied_ > stats_.occupiedPeak)
        stats_.occupiedPeak = occupied_;
    ++stats_.rehashes;
}

} // namespace txrace::htm
