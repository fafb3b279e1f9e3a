#include "common/sketch_block.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "common/sync.h"

namespace dangoron {

namespace {

// Process-wide recycler for the big sketch and panel blocks. A fresh
// allocation of this size is served by mmap, and every page costs a fault
// plus kernel zeroing on first touch — for production-scale sketches that
// is a full extra sweep of memory bandwidth per rebuild, larger than the
// build's own arithmetic. Keeping a handful of retired blocks warm turns
// rebuilds into pure overwrites. Thread-safe; exact-size matching.
class SketchStorageRecycler {
 public:
  static SketchStorageRecycler& Instance(BlockPool pool) {
    static SketchStorageRecycler* sketch = new SketchStorageRecycler();
    static SketchStorageRecycler* panels = new SketchStorageRecycler();
    return pool == BlockPool::kSketch ? *sketch : *panels;
  }

  std::unique_ptr<double[]> Acquire(size_t size) {
    {
      MutexLock lock(mutex_);
      for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
        if (it->first == size) {
          std::unique_ptr<double[]> block = std::move(it->second);
          retained_bytes_ -= size * sizeof(double);
          blocks_.erase(it);
          return block;
        }
      }
    }
    return std::make_unique_for_overwrite<double[]>(size);
  }

  void Release(std::unique_ptr<double[]> block, size_t size) {
    if (block == nullptr) {
      return;
    }
    MutexLock lock(mutex_);
    // Keep the newest blocks: rebuild loops retire and re-acquire the same
    // sizes back to back, so recency, not first-come, is what predicts
    // reuse. Retention is strictly bounded by count and bytes — a build
    // whose blocks alone exceed the byte budget gets no recycling rather
    // than pinning multi-GB dead memory for the process lifetime.
    blocks_.emplace_back(size, std::move(block));
    retained_bytes_ += size * sizeof(double);
    while (!blocks_.empty() && (blocks_.size() > kMaxBlocks ||
                                retained_bytes_ > kMaxRetainedBytes)) {
      retained_bytes_ -= blocks_.front().first * sizeof(double);
      blocks_.erase(blocks_.begin());
    }
  }

  size_t retained_bytes() {
    MutexLock lock(mutex_);
    return retained_bytes_;
  }

  void Trim() {
    MutexLock lock(mutex_);
    blocks_.clear();
    retained_bytes_ = 0;
  }

 private:
  // Two full builds' worth (each full build retires two sketch blocks and
  // one panel block).
  static constexpr size_t kMaxBlocks = 4;
  static constexpr size_t kMaxRetainedBytes = size_t{512} << 20;

  Mutex mutex_;
  std::vector<std::pair<size_t, std::unique_ptr<double[]>>> blocks_
      GUARDED_BY(mutex_);
  size_t retained_bytes_ GUARDED_BY(mutex_) = 0;
};

// Doubles of headroom that let a block's base be aligned up to 64 bytes.
constexpr size_t kAlignSlack = 7;

}  // namespace

int64_t SketchRecyclerRetainedBytes() {
  return static_cast<int64_t>(
      SketchStorageRecycler::Instance(BlockPool::kSketch).retained_bytes());
}

void TrimSketchRecycler() {
  SketchStorageRecycler::Instance(BlockPool::kSketch).Trim();
  SketchStorageRecycler::Instance(BlockPool::kPanels).Trim();
}

SketchBlock::SketchBlock(size_t doubles, BlockPool pool)
    : storage_(SketchStorageRecycler::Instance(pool).Acquire(doubles +
                                                             kAlignSlack)),
      size_(doubles),
      pool_(pool) {
  aligned_ = reinterpret_cast<double*>(
      (reinterpret_cast<uintptr_t>(storage_.get()) + 63) & ~uintptr_t{63});
}

SketchBlock::~SketchBlock() {
  SketchStorageRecycler::Instance(pool_).Release(std::move(storage_),
                                                 size_ + kAlignSlack);
}

SketchBlock::SketchBlock(SketchBlock&& other) noexcept
    : storage_(std::move(other.storage_)),
      size_(std::exchange(other.size_, 0)),
      aligned_(std::exchange(other.aligned_, nullptr)),
      pool_(other.pool_) {}

SketchBlock& SketchBlock::operator=(SketchBlock&& other) noexcept {
  if (this != &other) {
    // Retire this block through the recycler before taking over `other`'s:
    // a plain unique_ptr move would free it, bypassing the recycler in the
    // rebuild loops it exists for.
    SketchStorageRecycler::Instance(pool_).Release(std::move(storage_),
                                                   size_ + kAlignSlack);
    storage_ = std::move(other.storage_);
    size_ = std::exchange(other.size_, 0);
    aligned_ = std::exchange(other.aligned_, nullptr);
    pool_ = other.pool_;
  }
  return *this;
}

}  // namespace dangoron
