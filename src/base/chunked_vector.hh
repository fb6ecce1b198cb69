/**
 * @file
 * Chunked append-only vector: stable addresses, amortized chunk-sized
 * allocation.
 *
 * VMSP keeps one large state record per memory block touched (and
 * the directory one cold record per block that defers or
 * speculates). Storing the records inline in a growing array would
 * move them on every growth (and invalidate the pointers that index
 * them); storing them in individually allocated nodes costs one
 * malloc per block and scatters them over the heap. A chunked vector allocates fixed-size chunks, never moves
 * an element, and lays records out densely in first-touch order --
 * which is exactly the order trace replay revisits them.
 */

#ifndef MSPDSM_BASE_CHUNKED_VECTOR_HH
#define MSPDSM_BASE_CHUNKED_VECTOR_HH

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace mspdsm
{

/**
 * Append-only vector of T in fixed-size chunks. Element addresses are
 * stable for the container's lifetime; only emplace_back and indexed
 * access are provided.
 */
template <typename T, std::size_t ChunkSize = 64>
class ChunkedVector
{
    static_assert((ChunkSize & (ChunkSize - 1)) == 0,
                  "ChunkSize must be a power of two");

  public:
    ChunkedVector() = default;

    ChunkedVector(ChunkedVector &&o) noexcept
        : chunks_(std::move(o.chunks_)), size_(o.size_)
    {
        o.size_ = 0;
        o.chunks_.clear();
    }

    ChunkedVector &
    operator=(ChunkedVector &&o) noexcept
    {
        if (this != &o) {
            destroy();
            chunks_ = std::move(o.chunks_);
            size_ = o.size_;
            o.chunks_.clear();
            o.size_ = 0;
        }
        return *this;
    }

    ChunkedVector(const ChunkedVector &) = delete;
    ChunkedVector &operator=(const ChunkedVector &) = delete;

    ~ChunkedVector() { destroy(); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &
    operator[](std::size_t i)
    {
        return slot(i);
    }

    const T &
    operator[](std::size_t i) const
    {
        return const_cast<ChunkedVector *>(this)->slot(i);
    }

    /** Construct a new element at the end; never moves others. */
    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (size_ == chunks_.size() * ChunkSize) {
            chunks_.push_back(static_cast<T *>(::operator new(
                ChunkSize * sizeof(T), std::align_val_t(alignof(T)))));
        }
        T *p = &slot(size_);
        new (p) T(std::forward<Args>(args)...);
        ++size_;
        return *p;
    }

  private:
    T &
    slot(std::size_t i)
    {
        return chunks_[i / ChunkSize][i % ChunkSize];
    }

    void
    destroy()
    {
        for (std::size_t i = 0; i < size_; ++i)
            slot(i).~T();
        for (T *c : chunks_)
            ::operator delete(c, std::align_val_t(alignof(T)));
        chunks_.clear();
        size_ = 0;
    }

    std::vector<T *> chunks_;
    std::size_t size_ = 0;
};

} // namespace mspdsm

#endif // MSPDSM_BASE_CHUNKED_VECTOR_HH
