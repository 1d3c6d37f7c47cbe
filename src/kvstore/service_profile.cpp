#include "kvstore/service_profile.hpp"

namespace mnemo::kvstore {

std::string_view to_string(StoreKind kind) {
  switch (kind) {
    case StoreKind::kVermilion:
      return "vermilion";
    case StoreKind::kCachet:
      return "cachet";
    case StoreKind::kDynaStore:
      return "dynastore";
  }
  return "?";
}

std::optional<StoreKind> parse_store_kind(std::string_view name) {
  for (const StoreKind kind : kAllStoreKinds) {
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::string_view paper_analogue(StoreKind kind) {
  switch (kind) {
    case StoreKind::kVermilion:
      return "Redis";
    case StoreKind::kCachet:
      return "Memcached";
    case StoreKind::kDynaStore:
      return "DynamoDB";
  }
  return "?";
}

const ServiceProfile& default_profile(StoreKind kind) {
  // Calibration targets (100 KB thumbnail records, Table I node timings:
  // FastMem payload stream ~6.9 us, SlowMem ~56.8 us):
  //  * Vermilion: paper Fig 5a shows ~40% throughput gain Fast vs Slow
  //      -> (cpu + slow_mem) / (cpu + fast_mem) ~ 1.4 with cpu ~ 115 us
  //        (a YCSB client + RPC round trip per op; Fig 5 Redis throughput
  //         is in the high-10^3 ops/s range).
  //  * Cachet: paper Fig 8b/9 show Memcached "barely influenced": its
  //      pipelined chunked transfers overlap ~90% of the stream
  //      -> gap ~ 6%.
  //  * DynaStore: paper: "severely impacted": tree descent is dependent
  //      pointer chasing and items are copied multiple times
  //      -> gap ~ 1.9x.
  static const ServiceProfile kVermilionProfile = {
      /*cpu_read_ns=*/115'000.0,
      /*cpu_write_ns=*/118'000.0,
      /*cpu_per_probe_ns=*/40.0,
      /*latency_sensitivity=*/1.0,
      /*bandwidth_overlap=*/0.0,
      /*write_discount=*/0.55,
      /*read_stream_amplification=*/1.0,
      /*write_stream_amplification=*/1.0,
      /*jitter_sigma=*/0.02,
      /*tail_spike_prob=*/0.004,
      /*tail_spike_mult=*/6.0,
  };
  static const ServiceProfile kCachetProfile = {
      /*cpu_read_ns=*/62'000.0,
      /*cpu_write_ns=*/64'000.0,
      /*cpu_per_probe_ns=*/25.0,
      /*latency_sensitivity=*/0.8,
      /*bandwidth_overlap=*/0.90,
      /*write_discount=*/0.50,
      /*read_stream_amplification=*/1.0,
      /*write_stream_amplification=*/1.0,
      /*jitter_sigma=*/0.015,
      /*tail_spike_prob=*/0.002,
      /*tail_spike_mult=*/4.0,
  };
  static const ServiceProfile kDynaStoreProfile = {
      /*cpu_read_ns=*/160'000.0,
      /*cpu_write_ns=*/175'000.0,
      /*cpu_per_probe_ns=*/120.0,
      /*latency_sensitivity=*/1.6,
      /*bandwidth_overlap=*/0.0,
      /*write_discount=*/0.80,
      /*read_stream_amplification=*/3.0,
      /*write_stream_amplification=*/2.0,
      /*jitter_sigma=*/0.03,
      /*tail_spike_prob=*/0.01,
      /*tail_spike_mult=*/12.0,
  };
  switch (kind) {
    case StoreKind::kVermilion:
      return kVermilionProfile;
    case StoreKind::kCachet:
      return kCachetProfile;
    case StoreKind::kDynaStore:
      return kDynaStoreProfile;
  }
  return kVermilionProfile;
}

}  // namespace mnemo::kvstore
