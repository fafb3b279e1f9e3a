#include "common/sketch_block.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "common/sync.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace dangoron {

// Maps `doubles` doubles plus one spare page. ASan builds poison everything
// past the block, so a kernel overrunning it reports as a heap overflow
// would instead of silently writing into a neighbouring mapping.
//
// A block of kHugePageBytes or more is mapped kHugePageBytes longer, the
// misaligned head and the unused tail are unmapped again, and the rest is
// advised MADV_HUGEPAGE: a pair row of a few KB then shares its TLB entry
// with the 2 MB around it instead of owning a 4 KB page, and a build faults
// the block in 2 MB at a time. Where transparent huge pages are off
// (`never`, or a kernel without them) the advice fails and is ignored; the
// block is then an ordinary 4 KB-page mapping, only aligned.
PageStorage MapPageStorage(size_t doubles) {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t used = doubles * sizeof(double);
  const size_t bytes = (used + page - 1) / page * page + page;
  const size_t slack = used >= kHugePageBytes ? kHugePageBytes : 0;
  void* mapped = mmap(nullptr, bytes + slack, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) {
    throw std::bad_alloc();
  }
  char* pages = static_cast<char*>(mapped);
  if (slack != 0) {
    const uintptr_t start = reinterpret_cast<uintptr_t>(mapped);
    const size_t head = (kHugePageBytes - start % kHugePageBytes) %
                        kHugePageBytes;
    if (head != 0) {
      munmap(mapped, head);
    }
    munmap(pages + head + bytes, slack - head);
    pages += head;
    (void)madvise(pages, bytes, MADV_HUGEPAGE);
  }
  ASAN_POISON_MEMORY_REGION(pages + used, bytes - used);
  return PageStorage(reinterpret_cast<double*>(pages), PageUnmapper{bytes});
}

namespace {

// Process-wide recycler for the big sketch blocks. Every page of
// a fresh block costs a fault plus kernel zeroing on first touch — for
// production-scale sketches that is a full extra sweep of memory bandwidth
// per rebuild, larger than the build's own arithmetic. Keeping a handful of retired blocks warm turns
// rebuilds into pure overwrites. Thread-safe; exact-size matching.
class SketchStorageRecycler {
 public:
  static SketchStorageRecycler& Instance() {
    static SketchStorageRecycler* recycler = new SketchStorageRecycler();
    return *recycler;
  }

  PageStorage Acquire(size_t size) {
    {
      MutexLock lock(mutex_);
      for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
        if (it->first == size) {
          PageStorage block = std::move(it->second);
          retained_bytes_ -= size * sizeof(double);
          blocks_.erase(it);
          return block;
        }
      }
    }
    return MapPageStorage(size);
  }

  void Release(PageStorage block, size_t size) {
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
  // Two full builds' worth of sketch blocks (each full build retires two).
  static constexpr size_t kMaxBlocks = 4;
  static constexpr size_t kMaxRetainedBytes = size_t{512} << 20;

  Mutex mutex_;
  std::vector<std::pair<size_t, PageStorage>> blocks_ GUARDED_BY(mutex_);
  size_t retained_bytes_ GUARDED_BY(mutex_) = 0;
};

}  // namespace

void PageUnmapper::operator()(double* pages) const {
  ASAN_UNPOISON_MEMORY_REGION(pages, bytes);
  munmap(pages, bytes);
}

int64_t SketchRecyclerRetainedBytes() {
  return static_cast<int64_t>(
      SketchStorageRecycler::Instance().retained_bytes());
}

void TrimSketchRecycler() { SketchStorageRecycler::Instance().Trim(); }

SketchBlock::SketchBlock(size_t doubles)
    : storage_(SketchStorageRecycler::Instance().Acquire(doubles)),
      size_(doubles) {}

SketchBlock::~SketchBlock() {
  SketchStorageRecycler::Instance().Release(std::move(storage_), size_);
}

SketchBlock::SketchBlock(SketchBlock&& other) noexcept
    : storage_(std::move(other.storage_)),
      size_(std::exchange(other.size_, 0)) {}

SketchBlock& SketchBlock::operator=(SketchBlock&& other) noexcept {
  if (this != &other) {
    // Retire this block through the recycler before taking over `other`'s:
    // a plain unique_ptr move would free it, bypassing the recycler in the
    // rebuild loops it exists for.
    SketchStorageRecycler::Instance().Release(std::move(storage_), size_);
    storage_ = std::move(other.storage_);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

}  // namespace dangoron
