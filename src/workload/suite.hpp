#pragma once

#include <vector>

#include "workload/workload_spec.hpp"

namespace mnemo::workload {

/// The paper's five custom YCSB workloads (Table III): Trending, News Feed,
/// Timeline, Edit Thumbnail, Trending Preview — 10,000 keys and 100,000
/// requests each.
std::vector<WorkloadSpec> paper_suite(std::uint64_t seed = 0x6d6e656dULL);

/// Look up one Table III workload by name. An unknown name throws
/// std::invalid_argument naming it and listing the valid ones.
WorkloadSpec paper_workload(std::string_view name,
                            std::uint64_t seed = 0x6d6e656dULL);

/// Fig 5c's record-size sweep: the Timeline access pattern at thumbnail
/// (100 KB), text post (10 KB) and photo caption (1 KB) record sizes.
std::vector<WorkloadSpec> record_size_sweep(std::uint64_t seed = 0x6d6e656dULL);

/// Fig 5a's key-distribution comparison set (Trending / News Feed /
/// Timeline — hotspot / latest / scrambled zipfian at equal size & ratio).
std::vector<WorkloadSpec> distribution_sweep(std::uint64_t seed = 0x6d6e656dULL);

/// Fig 5b's read:write comparison (Timeline 100:0 vs Edit Thumbnail 50:50).
std::vector<WorkloadSpec> ratio_sweep(std::uint64_t seed = 0x6d6e656dULL);

/// YCSB workload D ("read latest") as an extension beyond Table III:
/// 95:5 read:insert with a latest request distribution — the inserts
/// themselves move the hot set, the native YCSB mechanism the news_feed
/// workload's drift parameter approximates.
WorkloadSpec ycsb_d(std::uint64_t seed = 0x6d6e656dULL);

}  // namespace mnemo::workload
