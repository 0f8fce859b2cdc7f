#ifndef TABULA_TESTS_ENGINE_AT_K_H_
#define TABULA_TESTS_ENGINE_AT_K_H_

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/tabula.h"
#include "shard/sharded_tabula.h"

namespace tabula {

/// The engine a shard-count sweep runs at K. A ShardedTabula needs
/// K >= 2, so the K = 1 case of every differential suite runs on the
/// plain Tabula built from the same base options — the single-instance
/// deployment a caller with K = 1 gets.
class EngineAtK {
 public:
  static Result<EngineAtK> Initialize(const Table& table,
                                      const ShardedTabulaOptions& options) {
    EngineAtK e;
    if (options.num_shards <= 1) {
      TABULA_ASSIGN_OR_RETURN(e.plain_,
                              Tabula::Initialize(table, options.base));
    } else {
      TABULA_ASSIGN_OR_RETURN(e.sharded_,
                              ShardedTabula::Initialize(table, options));
    }
    return e;
  }

  static Result<EngineAtK> Load(const Table& table,
                                const ShardedTabulaOptions& options,
                                const std::string& path) {
    EngineAtK e;
    if (options.num_shards <= 1) {
      TABULA_ASSIGN_OR_RETURN(e.plain_,
                              Tabula::Load(table, options.base, path));
    } else {
      TABULA_ASSIGN_OR_RETURN(e.sharded_,
                              ShardedTabula::Load(table, options, path));
    }
    return e;
  }

  QueryEngine* get() const {
    return sharded_ != nullptr ? static_cast<QueryEngine*>(sharded_.get())
                               : plain_.get();
  }
  QueryEngine* operator->() const { return get(); }
  QueryEngine& operator*() const { return *get(); }

  /// The sharded engine (nullptr at K = 1).
  ShardedTabula* sharded() const { return sharded_.get(); }
  /// The plain engine (nullptr at K >= 2).
  Tabula* plain() const { return plain_.get(); }

  /// Sorted packed keys of every iceberg cell (the merged directory's
  /// at K >= 2).
  std::vector<uint64_t> IcebergKeys() const {
    if (sharded_ != nullptr) return sharded_->MergedIcebergKeys();
    std::vector<uint64_t> keys;
    for (const IcebergCell& c : plain_->cube_table().cells()) {
      keys.push_back(c.key);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  SampleStoreStats StoreStats() const {
    return sharded_ != nullptr ? sharded_->StoreStats()
                               : plain_->sample_store().Stats();
  }
  uint64_t StoreBytes() const {
    return sharded_ != nullptr ? sharded_->StoreBytes()
                               : plain_->sample_store().bytes();
  }

 private:
  std::unique_ptr<Tabula> plain_;
  std::unique_ptr<ShardedTabula> sharded_;
};

}  // namespace tabula

#endif  // TABULA_TESTS_ENGINE_AT_K_H_
