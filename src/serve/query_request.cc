#include "serve/query_request.h"

namespace dangoron {

std::string_view ServeTierName(ServeTier tier) {
  switch (tier) {
    case ServeTier::kExact:
      return "exact";
    case ServeTier::kApprox:
      return "approx";
    case ServeTier::kAuto:
      return "auto";
  }
  return "unknown";
}

Result<ServeTier> ParseServeTier(const std::string& text) {
  if (text == "exact") {
    return ServeTier::kExact;
  }
  if (text == "approx") {
    return ServeTier::kApprox;
  }
  if (text == "auto") {
    return ServeTier::kAuto;
  }
  return Status::InvalidArgument("unknown serve tier '", text,
                                 "' (expected exact, approx, or auto)");
}

Result<AdmissionPolicy> ParseAdmissionPolicy(const std::string& text) {
  if (text == "refuse") {
    return AdmissionPolicy::kRefuse;
  }
  if (text == "queue") {
    return AdmissionPolicy::kQueue;
  }
  return Status::InvalidArgument("unknown admission policy '", text,
                                 "' (expected refuse or queue)");
}

Result<DegradePolicy> ParseDegradePolicy(const std::string& text) {
  if (text == "off") {
    return DegradePolicy::kOff;
  }
  if (text == "auto") {
    return DegradePolicy::kAuto;
  }
  return Status::InvalidArgument("unknown degrade policy '", text,
                                 "' (expected off or auto)");
}

Status QueryRequest::Validate() const {
  if (dataset.empty()) {
    return Status::InvalidArgument("QueryRequest: empty dataset name");
  }
  if (options.deadline_ms.has_value() && *options.deadline_ms <= 0) {
    return Status::InvalidArgument(
        "QueryRequest: deadline_ms must be > 0 when set, got ",
        *options.deadline_ms, " (leave it unset for no deadline)");
  }
  if (options.queue_capacity <= 0) {
    return Status::InvalidArgument(
        "QueryRequest: queue_capacity must be > 0, got ",
        options.queue_capacity);
  }
  if (options.max_batch_windows < 0) {
    return Status::InvalidArgument(
        "QueryRequest: max_batch_windows must be >= 0 (0 = unbounded), got ",
        options.max_batch_windows);
  }
  return Status::Ok();
}

}  // namespace dangoron
