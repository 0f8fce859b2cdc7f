#include "testing/legacy_dry_run.h"

#include <unordered_map>

#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace tabula {

Result<DryRunResult> RunDryRunLegacy(const Table& table,
                                     const KeyEncoder& encoder,
                                     const KeyPacker& packer,
                                     const Lattice& lattice,
                                     const LossFunction& loss,
                                     const DatasetView& global_sample,
                                     double theta) {
  Stopwatch timer;
  TABULA_ASSIGN_OR_RETURN(std::unique_ptr<BoundLoss> bound,
                          loss.Bind(table, global_sample));

  // Thread-chunked fold into per-chunk std::unordered_maps, merged in
  // chunk order — the pre-flat-hash engine, preserved verbatim.
  auto& pool = ThreadPool::Global();
  DatasetView all(&table);
  size_t num_rows = all.size();
  std::vector<std::unordered_map<uint64_t, LossState>> partials(
      pool.num_threads() + 1);
  pool.ParallelForChunked(num_rows, [&](size_t chunk, size_t begin,
                                        size_t end) {
    auto& map = partials[chunk];
    for (size_t i = begin; i < end; ++i) {
      RowId r = all.row(i);
      bound->Accumulate(&map[packer.PackRow(encoder, r)], r);
    }
  });
  std::unordered_map<uint64_t, LossState> finest;
  for (auto& partial : partials) {
    if (finest.empty()) {
      finest = std::move(partial);
      continue;
    }
    for (auto& [key, state] : partial) {
      auto [it, inserted] = finest.try_emplace(key, std::move(state));
      if (!inserted) it->second.Merge(state);
    }
  }

  const size_t n = lattice.num_attributes();
  std::vector<std::unordered_map<uint64_t, LossState>> maps(
      lattice.num_cuboids());
  maps[lattice.finest()] = std::move(finest);

  // Serial roll-up, coarsest-last.
  for (CuboidMask mask : lattice.TopDownOrder()) {
    if (mask == lattice.finest()) continue;
    size_t j = 0;
    while (j < n && (mask & (CuboidMask{1} << j))) ++j;
    CuboidMask parent = mask | (CuboidMask{1} << j);
    const auto& parent_map = maps[parent];
    auto& my_map = maps[mask];
    my_map.reserve(parent_map.size());
    for (const auto& [key, state] : parent_map) {
      uint64_t rolled = packer.WithNull(key, j);
      auto [it, inserted] = my_map.try_emplace(rolled, state);
      if (!inserted) it->second.Merge(state);
    }
  }

  DryRunResult result;
  result.cuboids.resize(lattice.num_cuboids());
  for (size_t m = 0; m < lattice.num_cuboids(); ++m) {
    CuboidMask mask = static_cast<CuboidMask>(m);
    CuboidDryRunInfo& info = result.cuboids[m];
    info.mask = mask;
    info.total_cells = maps[m].size();
    for (const auto& [key, state] : maps[m]) {
      if (bound->Finalize(state) > theta) {
        info.iceberg_keys.push_back(key);
      }
    }
    result.total_cells += info.total_cells;
    result.total_iceberg_cells += info.iceberg_keys.size();
    if (!info.iceberg_keys.empty()) ++result.iceberg_cuboids;
  }
  result.millis = timer.ElapsedMillis();
  return result;
}

}  // namespace tabula
