#ifndef DANGORON_COMMON_SKETCH_BLOCK_H_
#define DANGORON_COMMON_SKETCH_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <memory>

namespace dangoron {

/// Which process-wide recycler a SketchBlock draws from and returns to.
/// Sketch storage is what a built sketch holds (pair-prefix blocks, ring
/// slabs); panel storage is the z-normalized panels a build reads and then
/// drops (corr/block_kernel.h's NormalizedPanels).
enum class BlockPool { kSketch, kPanels };

/// A 64-byte-aligned, uninitialized block of doubles drawn from — and on
/// destruction or reassignment returned to — a process-wide storage
/// recycler (see SketchRecyclerRetainedBytes): a rebuild-heavy workload
/// re-faulting hundreds of MB of freshly mmapped pages per build would
/// otherwise spend more time in the kernel's page zeroing than in the
/// kernels.
class SketchBlock {
 public:
  SketchBlock() = default;
  explicit SketchBlock(size_t doubles, BlockPool pool = BlockPool::kSketch);
  ~SketchBlock();
  SketchBlock(SketchBlock&& other) noexcept;
  SketchBlock& operator=(SketchBlock&& other) noexcept;

  double* data() const { return aligned_; }
  /// Usable doubles from data() on (excludes the alignment slack).
  size_t size() const { return size_; }

 private:
  std::unique_ptr<double[]> storage_;
  size_t size_ = 0;
  double* aligned_ = nullptr;
  BlockPool pool_ = BlockPool::kSketch;
};

/// Bytes currently parked in the process-wide sketch storage recycler (the
/// retired pair-prefix blocks and ring slabs destroyed sketches leave
/// behind for the next build; panel storage is not counted). Observability
/// hook for the serving layer's cache accounting and for tests of the
/// eviction → recycler → rebuild composition.
int64_t SketchRecyclerRetainedBytes();

/// Drops every block both recyclers retain, returning the memory to the
/// allocator — e.g. after a serving layer mass-evicts sketches it does not
/// expect to rebuild.
void TrimSketchRecycler();

}  // namespace dangoron

#endif  // DANGORON_COMMON_SKETCH_BLOCK_H_
