#include "serve/prepared_dataset.h"

namespace dangoron {

Result<std::shared_ptr<const PreparedDataset>> PreparedDataset::Create(
    std::shared_ptr<const TimeSeriesMatrix> data, int64_t basic_window,
    ThreadPool* pool, std::optional<uint64_t> fingerprint) {
  if (data == nullptr) {
    return Status::InvalidArgument("PreparedDataset: null data");
  }
  BasicWindowIndexOptions options;
  options.basic_window = basic_window;
  ASSIGN_OR_RETURN(BasicWindowIndex index,
                   BasicWindowIndex::Build(*data, options, pool));
  if (!fingerprint.has_value()) {
    fingerprint = data->ContentFingerprint();
  }
  return std::shared_ptr<const PreparedDataset>(
      new PreparedDataset(std::move(data), std::move(index), *fingerprint));
}

int64_t PreparedDataset::MemoryBytes() const {
  return index_.MemoryBytes() +
         static_cast<int64_t>(data_->values().size() * sizeof(double));
}

}  // namespace dangoron
