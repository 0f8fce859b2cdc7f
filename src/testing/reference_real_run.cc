#include "testing/reference_real_run.h"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "common/flat_hash.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "cube/cost_model.h"

namespace tabula {

namespace {

using CellRowsMap = FlatHashMap<std::vector<RowId>>;

/// Merges per-chunk maps in ascending chunk order; each cell's rows end
/// up in ascending row order because chunks are contiguous ascending
/// ranges.
CellRowsMap MergeChunkMaps(std::vector<CellRowsMap> partials,
                           size_t expected_cells) {
  if (partials.empty()) return CellRowsMap();
  CellRowsMap merged = std::move(partials[0]);
  merged.reserve(expected_cells);
  for (size_t c = 1; c < partials.size(); ++c) {
    partials[c].ForEach([&](uint64_t key, std::vector<RowId>& rows) {
      auto [slot, inserted] = merged.TryEmplace(key);
      if (inserted) {
        *slot = std::move(rows);
      } else {
        slot->insert(slot->end(), rows.begin(), rows.end());
      }
    });
  }
  return merged;
}

/// Semi-join path: one scan; only rows whose cell key is an iceberg key
/// are collected (paper's "equi-join with the iceberg cell table").
CellRowsMap CollectJoinPath(const DatasetView& rows, const KeyEncoder& enc,
                            const KeyPacker& packer, CuboidMask mask,
                            const FlatHashSet& iceberg) {
  auto& pool = ThreadPool::Global();
  size_t chunks = ThreadPool::DeterministicChunkCount(rows.size());
  std::vector<CellRowsMap> partials(chunks);
  pool.ParallelForDeterministic(
      rows.size(), [&](size_t chunk, size_t begin, size_t end) {
        auto& map = partials[chunk];
        map.reserve(iceberg.size());
        for (size_t i = begin; i < end; ++i) {
          const RowId r = rows.row(i);
          uint64_t key = packer.PackRowMasked(enc, r, mask);
          if (iceberg.Contains(key)) map[key].push_back(r);
        }
      });
  return MergeChunkMaps(std::move(partials), iceberg.size());
}

/// Full-GroupBy path: group *all* rows of the cuboid, then keep iceberg
/// groups only.
CellRowsMap CollectGroupByPath(const DatasetView& rows, const KeyEncoder& enc,
                               const KeyPacker& packer, CuboidMask mask,
                               const FlatHashSet& iceberg,
                               size_t total_cells) {
  auto& pool = ThreadPool::Global();
  size_t chunks = ThreadPool::DeterministicChunkCount(rows.size());
  std::vector<CellRowsMap> partials(chunks);
  pool.ParallelForDeterministic(
      rows.size(), [&](size_t chunk, size_t begin, size_t end) {
        auto& map = partials[chunk];
        map.reserve(std::min(total_cells, end - begin));
        for (size_t i = begin; i < end; ++i) {
          const RowId r = rows.row(i);
          map[packer.PackRowMasked(enc, r, mask)].push_back(r);
        }
      });
  CellRowsMap merged = MergeChunkMaps(std::move(partials), total_cells);
  CellRowsMap filtered(iceberg.size());
  merged.ForEach([&](uint64_t key, std::vector<RowId>& rows) {
    if (iceberg.Contains(key)) filtered[key] = std::move(rows);
  });
  return filtered;
}

}  // namespace

Result<RealRunResult> RunRealRunScalarReference(
    const DatasetView& rows, const KeyEncoder& encoder,
    const KeyPacker& packer, const DryRunResult& dry_run,
    const LossFunction& loss, double theta,
    const GreedySamplerOptions& sampler_options,
    RealRunPathPolicy path_policy) {
  Stopwatch total;
  const Table& table = *rows.table();
  RealRunResult result;
  GreedySampler sampler(&loss, theta, sampler_options);
  result.cube.Reserve(dry_run.total_iceberg_cells);

  std::vector<IcebergCell> cells;
  cells.reserve(dry_run.total_iceberg_cells);
  for (const CuboidDryRunInfo& info : dry_run.cuboids) {
    if (info.iceberg_keys.empty()) continue;
    Stopwatch cuboid_timer;
    FlatHashSet iceberg(info.iceberg_keys.size());
    for (uint64_t key : info.iceberg_keys) iceberg.Insert(key);
    const bool join_path =
        path_policy == RealRunPathPolicy::kAlwaysJoin ||
        (path_policy == RealRunPathPolicy::kAuto &&
         PreferJoinPath(static_cast<double>(rows.size()),
                        static_cast<double>(info.iceberg_keys.size()),
                        static_cast<double>(info.total_cells)));
    CellRowsMap cell_rows =
        join_path ? CollectJoinPath(rows, encoder, packer, info.mask, iceberg)
                  : CollectGroupByPath(rows, encoder, packer, info.mask,
                                       iceberg, info.total_cells);
    for (auto& [key, raw] : cell_rows.ExtractSorted()) {
      IcebergCell cell;
      cell.key = key;
      cell.cuboid = info.mask;
      cell.raw_rows = std::move(raw);
      cells.push_back(std::move(cell));
    }
    CuboidRealRunInfo cuboid_info;
    cuboid_info.mask = info.mask;
    cuboid_info.iceberg_cells = info.iceberg_keys.size();
    cuboid_info.used_join_path = join_path;
    cuboid_info.millis = cuboid_timer.ElapsedMillis();
    result.collect_millis += cuboid_info.millis;
    result.per_cuboid.push_back(cuboid_info);
  }

  // The production sampling queue: largest raw_rows first (ties by
  // index), one cell per claim.
  Stopwatch sample_timer;
  std::vector<uint32_t> claim_order(cells.size());
  std::iota(claim_order.begin(), claim_order.end(), 0u);
  std::sort(claim_order.begin(), claim_order.end(),
            [&](uint32_t a, uint32_t b) {
              const size_t na = cells[a].raw_rows.size();
              const size_t nb = cells[b].raw_rows.size();
              return na != nb ? na > nb : a < b;
            });
  Status first_error = Status::OK();
  std::mutex error_mu;
  ThreadPool::Global().ParallelForGrains(
      claim_order.size(),
      [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          IcebergCell& cell = cells[claim_order[i]];
          auto sample = sampler.Sample(DatasetView(&table, cell.raw_rows));
          if (!sample.ok()) {
            std::lock_guard<std::mutex> lock(error_mu);
            if (first_error.ok()) first_error = sample.status();
            continue;
          }
          cell.local_sample = std::move(sample).value();
        }
      },
      /*grain_rows=*/1);
  TABULA_RETURN_NOT_OK(first_error);
  result.sample_millis = sample_timer.ElapsedMillis();

  for (auto& cell : cells) {
    result.local_sample_tuples += cell.local_sample.size();
    result.cube.Add(std::move(cell));
  }
  result.millis = total.ElapsedMillis();
  return result;
}

}  // namespace tabula
