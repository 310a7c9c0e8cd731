/**
 * @file
 * A flat open-addressing map keyed by a 64-bit integer (a cache line
 * or granule index), in the style of the HTM line directory:
 * linear probing over one power-of-two array, growth at 3/4 load, no
 * deletion. A lookup in a small table touches one or two adjacent
 * slots, where a node-based std::unordered_map chases a bucket
 * pointer and a node pointer. Every key value is valid, 0 included:
 * a slot's occupancy is its own flag, not a reserved key.
 */

#ifndef TXRACE_SUPPORT_FLATMAP_HH
#define TXRACE_SUPPORT_FLATMAP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace txrace {

/** Map from 64-bit keys to @p V (default-constructed on insert). A
 *  FlatU64Map<bool> whose values are never read serves as a set. */
template <class V>
class FlatU64Map
{
  public:
    /** Value of @p key, or nullptr. Valid until the next insert. */
    const V *
    find(uint64_t key) const
    {
        if (size_ == 0)
            return nullptr;
        for (size_t i = hash(key);; i = (i + 1) & mask_) {
            const Slot &s = slots_[i];
            if (!s.used)
                return nullptr;
            if (s.key == key)
                return &s.value;
        }
    }

    /** Value of @p key, inserting V{} when absent. */
    V &
    operator[](uint64_t key)
    {
        if ((size_ + 1) * 4 > slots_.size() * 3) [[unlikely]]
            grow();
        for (size_t i = hash(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (!s.used) {
                s.used = true;
                s.key = key;
                s.value = V{};
                ++size_;
                return s.value;
            }
            if (s.key == key)
                return s.value;
        }
    }

    bool contains(uint64_t key) const { return find(key) != nullptr; }
    size_t size() const { return size_; }
    /** Slots in the table (a power of two, or 0 before any insert). */
    size_t capacity() const { return slots_.size(); }

    /** Drop every entry; keeps the table's allocation. */
    void
    clear()
    {
        for (Slot &s : slots_)
            s = Slot{};
        size_ = 0;
    }

  private:
    struct Slot
    {
        uint64_t key = 0;
        V value{};
        bool used = false;
    };

    size_t
    hash(uint64_t key) const
    {
        // Fibonacci hashing: neighbouring lines land far apart.
        return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                   shift_);
    }

    /** Double the table (16 slots at first) and re-insert. */
    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        const size_t cap = old.empty() ? 16 : old.size() * 2;
        slots_.assign(cap, Slot{});
        mask_ = cap - 1;
        shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(cap));
        for (const Slot &o : old) {
            if (!o.used)
                continue;
            size_t i = hash(o.key);
            while (slots_[i].used)
                i = (i + 1) & mask_;
            slots_[i] = o;
        }
    }

    std::vector<Slot> slots_;
    size_t size_ = 0;
    size_t mask_ = 0;
    unsigned shift_ = 64;
};

} // namespace txrace

#endif // TXRACE_SUPPORT_FLATMAP_HH
