#include "workload/compiled_trace.hpp"

#include "util/rng.hpp"

namespace mnemo::workload {

CompiledTrace::CompiledTrace(const Trace& trace) : trace_(&trace) {
  const std::vector<Request>& requests = trace.requests();
  ops_.reserve(requests.size());
  keys_.reserve(requests.size());
  std::size_t reads = 0;
  for (const Request& req : requests) {
    ops_.push_back(req.op);
    keys_.push_back(req.key);
    if (req.op == OpType::kRead) ++reads;
  }

  key_sizes_ = std::span<const std::uint64_t>(trace.key_sizes());
  const std::size_t num_keys = key_sizes_.size();
  key_hashes_.resize(num_keys);
  for (std::size_t key = 0; key < num_keys; ++key) {
    key_hashes_[key] = util::mix64(key);
    dataset_bytes_ += key_sizes_[key];
  }

  // The byte streams the service-vs-bytes fit consumes, split by request
  // class exactly as the per-cell loop used to build them.
  read_bytes_.reserve(reads);
  write_bytes_.reserve(requests.size() - reads);
  for (const Request& req : requests) {
    const auto bytes =
        static_cast<double>(key_sizes_[static_cast<std::size_t>(req.key)]);
    if (req.op == OpType::kRead) {
      read_bytes_.push_back(bytes);
    } else {
      write_bytes_.push_back(bytes);
    }
  }
  read_fit_ = fit_moments(read_bytes_);
  write_fit_ = fit_moments(write_bytes_);
}

ServiceFitMoments CompiledTrace::fit_moments(
    std::span<const double> bytes) {
  ServiceFitMoments m;
  if (bytes.empty()) return m;
  // Index-order accumulation, matching stats::fit_line's normal-equation
  // loop addition chain for addition chain, so each sum is the same double
  // to the last bit.
  const double first = bytes.front();
  for (const double b : bytes) {
    if (b != first) {
      m.distinct = true;
      break;
    }
  }
  for (const double b : bytes) {
    m.n += 1.0;
    m.sum_x += b;
    m.sum_xx += b * b;
  }
  return m;
}

}  // namespace mnemo::workload
