#ifndef DANGORON_COMMON_SKETCH_BLOCK_H_
#define DANGORON_COMMON_SKETCH_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <memory>

namespace dangoron {

/// Which process-wide recycler a SketchBlock draws from and returns to.
/// Sketch storage is what a built sketch holds (pair-prefix blocks, ring
/// slabs); panel storage is the z-normalized panels a build reads
/// (corr/block_kernel.h's NormalizedPanels), recycled across band streams.
enum class BlockPool { kSketch, kPanels };

/// Unmaps a SketchBlock's pages.
struct PageUnmapper {
  size_t bytes = 0;
  void operator()(double* pages) const;
};
using PageStorage = std::unique_ptr<double, PageUnmapper>;

/// A page-aligned, uninitialized block of doubles drawn from — and on
/// destruction or reassignment returned to — a process-wide storage
/// recycler (see SketchRecyclerRetainedBytes): a rebuild-heavy workload
/// re-faulting hundreds of MB of freshly mapped pages per build would
/// otherwise spend more time in the kernel's page zeroing than in the
/// kernels. Each block is its own anonymous mapping, not malloc memory:
/// freeing one returns its pages to the kernel at once and leaves malloc's
/// dynamic mmap threshold alone. (glibc raises that threshold to the size
/// of any freed mapped chunk up to 32 MB; later allocations below it then
/// come from the heap and fragment it.)
class SketchBlock {
 public:
  SketchBlock() = default;
  explicit SketchBlock(size_t doubles, BlockPool pool = BlockPool::kSketch);
  ~SketchBlock();
  SketchBlock(SketchBlock&& other) noexcept;
  SketchBlock& operator=(SketchBlock&& other) noexcept;

  double* data() const { return storage_.get(); }
  size_t size() const { return size_; }

  /// Unmaps the storage, bypassing the recycler, and leaves the block
  /// empty: for a block no later build will ask for.
  void Discard();

 private:
  PageStorage storage_;
  size_t size_ = 0;
  BlockPool pool_ = BlockPool::kSketch;
};

/// Bytes currently parked in one process-wide recycler: by default the
/// sketch storage (the retired pair-prefix blocks and ring slabs destroyed
/// sketches leave behind for the next build). Observability hook for the
/// serving layer's cache accounting and for tests of the eviction →
/// recycler → rebuild composition.
int64_t SketchRecyclerRetainedBytes(BlockPool pool = BlockPool::kSketch);

/// Drops every block both recyclers retain, returning the memory to the
/// kernel — e.g. after a serving layer mass-evicts sketches it does not
/// expect to rebuild.
void TrimSketchRecycler();

}  // namespace dangoron

#endif  // DANGORON_COMMON_SKETCH_BLOCK_H_
