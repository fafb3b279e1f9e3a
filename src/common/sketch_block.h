#ifndef DANGORON_COMMON_SKETCH_BLOCK_H_
#define DANGORON_COMMON_SKETCH_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <memory>

namespace dangoron {

/// Unmaps a SketchBlock's pages.
struct PageUnmapper {
  size_t bytes = 0;
  void operator()(double* pages) const;
};
using PageStorage = std::unique_ptr<double, PageUnmapper>;

/// The transparent huge page size MapPageStorage aligns large blocks to.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/// A fresh, page-aligned anonymous mapping of `doubles` doubles, unmapped
/// when the storage is destroyed: for a big block no later build asks for
/// again (the z-normalized panels a build reads), which would only crowd
/// the recycler below. A block of kHugePageBytes or more starts on a
/// kHugePageBytes boundary and is advised MADV_HUGEPAGE, so the kernel
/// backs it with 2 MB pages wherever transparent huge pages are `always`
/// or `madvise`; where they are off, the advice is ignored and the block
/// stays on 4 KB pages. Every SketchBlock is mapped here.
PageStorage MapPageStorage(size_t doubles);

/// An uninitialized block of doubles mapped by MapPageStorage (so 2 MB
/// aligned and huge-page-backed from kHugePageBytes up), drawn from — and
/// on destruction or reassignment returned to — the process-wide storage
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
  explicit SketchBlock(size_t doubles);
  ~SketchBlock();
  SketchBlock(SketchBlock&& other) noexcept;
  SketchBlock& operator=(SketchBlock&& other) noexcept;

  double* data() const { return storage_.get(); }
  size_t size() const { return size_; }

 private:
  PageStorage storage_;
  size_t size_ = 0;
};

/// Bytes currently parked in the recycler: the retired pair-prefix blocks
/// and ring slabs destroyed sketches leave behind for the next build.
/// Observability hook for the serving layer's cache accounting and for
/// tests of the eviction → recycler → rebuild composition.
int64_t SketchRecyclerRetainedBytes();

/// Drops every block the recycler retains, returning the memory to the
/// kernel — e.g. after a serving layer mass-evicts sketches it does not
/// expect to rebuild.
void TrimSketchRecycler();

}  // namespace dangoron

#endif  // DANGORON_COMMON_SKETCH_BLOCK_H_
