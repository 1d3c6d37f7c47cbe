#pragma once

#include <cstdint>

namespace mnemo::kvstore {

/// A stored value. Every operation is priced by the record's size alone
/// (DESIGN.md §1 "Payloads"), so the size is all a record keeps.
struct Record {
  std::uint64_t size = 0;
};

}  // namespace mnemo::kvstore
