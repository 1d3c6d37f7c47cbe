#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "hybridmem/access.hpp"

namespace mnemo::kvstore {

/// The three store architectures evaluated by the paper, as open-source
/// analogues (see DESIGN.md §1 for the mapping rationale):
///   kVermilion — Redis-like single-threaded event-loop store
///   kCachet    — Memcached-like slab store with overlapped transfers
///   kDynaStore — DynamoDB-local-like B+-tree + journal store
enum class StoreKind : std::uint8_t { kVermilion = 0, kCachet = 1, kDynaStore = 2 };

/// All three architectures, in the paper's presentation order.
inline constexpr StoreKind kAllStoreKinds[] = {
    StoreKind::kVermilion, StoreKind::kCachet, StoreKind::kDynaStore};

std::string_view to_string(StoreKind kind);
std::string_view paper_analogue(StoreKind kind);  ///< "Redis" etc.

/// The architecture whose to_string() is `name`; nullopt for any other.
std::optional<StoreKind> parse_store_kind(std::string_view name);

/// Per-architecture service-time model. The CPU terms cover everything the
/// paper's end-to-end client measurement folds into a request that is *not*
/// memory technology dependent: server event loop, request parsing, client
/// library, loopback RPC. The memory terms parameterize how the engine's
/// access pattern exposes it to node latency/bandwidth (see DESIGN.md §3).
///
/// Values are calibrated so the emulated FastMem/SlowMem throughput gap per
/// store matches the paper's observations (Redis ≈ 1.4x, Memcached ≈
/// flat, DynamoDB severely impacted) — the calibration targets are recorded
/// next to the numbers in service_profile.cpp.
struct ServiceProfile {
  double cpu_read_ns = 0.0;    ///< fixed non-memory cost of a GET
  double cpu_write_ns = 0.0;   ///< fixed non-memory cost of a PUT/UPDATE
  double cpu_per_probe_ns = 0.0;  ///< CPU per internal index probe

  /// Multiplier on node latency for dependent index touches.
  double latency_sensitivity = 1.0;
  /// Fraction of payload stream time hidden behind CPU/prefetch.
  double bandwidth_overlap = 0.0;
  /// Fraction of nominal cost writes actually pay (write combining).
  double write_discount = 1.0;
  /// How many times a payload is effectively streamed per GET (server read
  /// + response assembly) and per PUT.
  double read_stream_amplification = 1.0;
  double write_stream_amplification = 1.0;

  /// Deterministic service-time noise: relative sigma of multiplicative
  /// jitter, plus occasional tail spikes (GC pause, slab rebalance, ...).
  double jitter_sigma = 0.02;
  double tail_spike_prob = 0.0;
  double tail_spike_mult = 1.0;
};

/// The calibrated profile for each architecture.
const ServiceProfile& default_profile(StoreKind kind);

}  // namespace mnemo::kvstore
