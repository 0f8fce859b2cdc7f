#ifndef TABULA_TOOLS_NET_DEMO_COMMON_H_
#define TABULA_TOOLS_NET_DEMO_COMMON_H_

#include <cstdlib>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/tabula.h"
#include "data/taxi_gen.h"
#include "loss/mean_loss.h"
#include "shard/sharded_tabula.h"
#include "storage/table.h"

namespace tabula {
namespace tools {

/// The deterministic synthetic deployment tabula_server serves and
/// tabula_client --compare-local rebuilds: same (rows, seed, shards,
/// replicas) on both sides means the same table, the same cube, and —
/// because engine answers are deterministic — byte-identical answers
/// whether asked over the wire or in process. `shards` >= 2 serves a
/// ShardedTabula; `shards` <= 1 serves a plain Tabula, which has no
/// replicas to control.
struct DemoDeployment {
  size_t rows = 20000;
  uint64_t seed = 61;
  size_t shards = 4;
  size_t replicas = 2;
  /// Hierarchical-grid depth over pickup_x/pickup_y (0 disables the
  /// grid and with it spatial range queries). Equality-only answers are
  /// pinned identical with or without the grid, so enabling it by
  /// default changes nothing for legacy clients.
  size_t spatial_levels = 4;

  std::unique_ptr<Table> table;
  std::unique_ptr<MeanLoss> loss;
  std::unique_ptr<QueryEngine> engine;
  /// The engine as a ShardedTabula (nullptr when shards <= 1).
  ShardedTabula* sharded = nullptr;

  Status Build() {
    TaxiGeneratorOptions gen;
    gen.num_rows = rows;
    gen.seed = seed;
    table = TaxiGenerator(gen).Generate();
    loss = std::make_unique<MeanLoss>("fare_amount");
    TabulaOptions base;
    base.cubed_attributes = {"payment_type", "rate_code"};
    base.loss = loss.get();
    base.threshold = 0.05;
    base.spatial.levels = spatial_levels;
    if (shards <= 1) {
      TABULA_ASSIGN_OR_RETURN(engine, Tabula::Initialize(*table, base));
      return Status::OK();
    }
    ShardedTabulaOptions options;
    options.base = std::move(base);
    options.num_shards = shards;
    options.replicas_per_shard = replicas;
    TABULA_ASSIGN_OR_RETURN(std::unique_ptr<ShardedTabula> built,
                            ShardedTabula::Initialize(*table, options));
    sharded = built.get();
    engine = std::move(built);
    return Status::OK();
  }

  /// Replica control (the server's kill / revive / healthy verbs).
  Status SetReplicaDown(size_t shard, size_t replica, bool down) {
    TABULA_RETURN_NOT_OK(RequireSharded());
    return sharded->SetReplicaDown(shard, replica, down);
  }
  Result<size_t> HealthyReplicaCount(size_t shard) {
    TABULA_RETURN_NOT_OK(RequireSharded());
    return sharded->HealthyReplicaCount(shard);
  }

 private:
  Status RequireSharded() const {
    if (sharded == nullptr) {
      return Status::InvalidArgument(
          "replica control requires a sharded deployment (num_shards > 1)");
    }
    return Status::OK();
  }
};

/// `--flag value` scanner shared by the two binaries.
inline bool FlagValue(int argc, char** argv, const std::string& flag,
                      std::string* out) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (flag == argv[i]) {
      *out = argv[i + 1];
      return true;
    }
  }
  return false;
}

inline size_t FlagSize(int argc, char** argv, const std::string& flag,
                       size_t fallback) {
  std::string v;
  if (!FlagValue(argc, argv, flag, &v)) return fallback;
  return static_cast<size_t>(std::strtoull(v.c_str(), nullptr, 10));
}

inline double FlagDouble(int argc, char** argv, const std::string& flag,
                         double fallback) {
  std::string v;
  if (!FlagValue(argc, argv, flag, &v)) return fallback;
  return std::strtod(v.c_str(), nullptr);
}

inline bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

}  // namespace tools
}  // namespace tabula

#endif  // TABULA_TOOLS_NET_DEMO_COMMON_H_
