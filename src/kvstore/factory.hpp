#pragma once

#include <memory>

#include "kvstore/kvstore.hpp"

namespace mnemo::kvstore {

/// Construct a store of the requested architecture bound to the node named
/// in `config`.
std::unique_ptr<KeyValueStore> make_store(StoreKind kind,
                                          hybridmem::HybridMemory& memory,
                                          const StoreConfig& config);

}  // namespace mnemo::kvstore
