#include "cube/dry_run.h"

#include <algorithm>

#include "common/flat_hash.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "exec/vector_ops.h"

namespace tabula {

namespace {

/// Minimum cells per pool worker before a roll-up level or the finalize
/// pass is worth fanning out. Merging or finalizing a cell costs on the
/// order of 100ns; waking a blocked worker costs tens of microseconds (and
/// far more when workers are oversubscribed), so a dispatch must hand each
/// worker thousands of cells to pay for itself.
constexpr size_t kCellsPerWorkerDispatch = 8192;

size_t Popcount(CuboidMask mask) {
  size_t count = 0;
  while (mask != 0) {
    mask &= mask - 1;
    ++count;
  }
  return count;
}

}  // namespace

Result<DryRunResult> RunDryRun(const DatasetView& rows,
                               const KeyEncoder& encoder,
                               const KeyPacker& packer, const Lattice& lattice,
                               const LossFunction& loss,
                               const DatasetView& global_sample, double theta,
                               bool keep_lattice) {
  Stopwatch timer;
  TABULA_ASSIGN_OR_RETURN(std::unique_ptr<BoundLoss> bound,
                          loss.Bind(*rows.table(), global_sample));

  // One GroupBy over `rows` at the finest cuboid, folding each row into its
  // cell's algebraic LossState. Deterministic chunking + chunk-order merge
  // + sorted emission make the result a pure function of the data: the
  // finest cuboid's cells arrive in ascending packed-key order, the
  // canonical parent order for the roll-up below.
  GroupedStates<LossState> finest = GroupAccumulateSorted<LossState>(
      encoder, packer, rows,
      [&bound](LossState* state, RowId row) { bound->Accumulate(state, row); });
  DryRunResult result;
  if (keep_lattice) {
    result.finest_states.reserve(finest.keys.size());
    for (size_t i = 0; i < finest.keys.size(); ++i) {
      result.finest_states.TryEmplace(finest.keys[i], finest.states[i]);
    }
  }
  result.fold_millis = timer.ElapsedMillis();

  const size_t n = lattice.num_attributes();

  // Cuboid cells live in dense parallel key/state arrays in insertion
  // order; a flat-hash index maps a packed key to its array position
  // only while the cuboid is being built and is dropped afterwards. This
  // keeps every hash-table slot at 12 bytes — the probe arrays stay
  // cache-resident and a growth rehash moves uint32 indices — while the
  // ~150-byte LossStates are only ever written sequentially, once each.
  struct CuboidCells {
    std::vector<uint64_t> keys;
    std::vector<LossState> states;
  };
  std::vector<CuboidCells> cells(lattice.num_cuboids());
  cells[lattice.finest()].keys = std::move(finest.keys);
  cells[lattice.finest()].states = std::move(finest.states);

  // Roll up along the lattice, finest first, one popcount level at a time.
  // Each cuboid derives from a parent with exactly one more grouped
  // attribute by nulling that attribute's position and merging states — no
  // further table scans. Cuboids at one level only read parent-level cells
  // and write their own, so a level's cuboids run in parallel without
  // locking; determinism holds because each cuboid folds its parent in
  // array order and the parent's order is itself deterministic.
  std::vector<std::vector<CuboidMask>> levels(n);
  for (size_t m = 0; m < lattice.num_cuboids(); ++m) {
    CuboidMask mask = static_cast<CuboidMask>(m);
    if (mask == lattice.finest()) continue;
    levels[Popcount(mask)].push_back(mask);
  }
  auto& pool = ThreadPool::Global();
  for (size_t level = n; level-- > 0;) {
    const std::vector<CuboidMask>& cuboids = levels[level];
    auto roll_up = [&](size_t begin, size_t end) {
      uint64_t rolled[kMorselRows];
      for (size_t i = begin; i < end; ++i) {
        CuboidMask mask = cuboids[i];
        // Lowest attribute not in this mask picks the roll-up parent.
        size_t j = 0;
        while (j < n && (mask & (CuboidMask{1} << j))) ++j;
        CuboidMask parent = mask | (CuboidMask{1} << j);
        const CuboidCells& parent_cells = cells[parent];
        CuboidCells& my_cells = cells[mask];
        // WithNull is (key & keep) | set with cuboid-constant operands,
        // so a whole morsel of parent keys rolls up in one batched
        // bitwise pass before the probe loop.
        const KeyPacker::MaskTransform t = packer.NullTransform(j);
        const size_t np = parent_cells.keys.size();
        FlatHashMap<uint32_t> index;
        for (size_t p0 = 0; p0 < np; p0 += kMorselRows) {
          const size_t pe = std::min(np, p0 + kMorselRows);
          vec::MaskRollKeys(parent_cells.keys.data() + p0, pe - p0, t.keep,
                            t.set, rolled);
          for (size_t p = p0; p < pe; ++p) {
            auto [slot, inserted] = index.TryEmplace(
                rolled[p - p0], static_cast<uint32_t>(my_cells.keys.size()));
            if (inserted) {
              my_cells.keys.push_back(rolled[p - p0]);
              my_cells.states.push_back(parent_cells.states[p]);
            } else {
              my_cells.states[*slot].Merge(parent_cells.states[p]);
            }
          }
        }
      }
    };
    // Fan a level out only when every worker gets enough cells to amortize
    // its wake-up (a blocked pool dispatch costs milliseconds when workers
    // are oversubscribed); small levels run inline on the calling thread.
    // Cuboid sizes within a level can be badly skewed, so the dispatch
    // steals cuboid-at-a-time (grain 1) instead of pre-chunking them:
    // whoever finishes early takes the next cuboid, and the one giant
    // cuboid no longer gates the level behind a static partition. Safe
    // for determinism: cuboids are independent, so the result never
    // depends on which thread runs them.
    size_t level_cells = 0;
    for (CuboidMask mask : cuboids) {
      size_t j = 0;
      while (j < n && (mask & (CuboidMask{1} << j))) ++j;
      level_cells += cells[mask | (CuboidMask{1} << j)].keys.size();
    }
    if (level_cells < kCellsPerWorkerDispatch * pool.num_threads()) {
      roll_up(0, cuboids.size());
    } else {
      pool.ParallelForGrains(
          cuboids.size(),
          [&roll_up](size_t, size_t begin, size_t end) { roll_up(begin, end); },
          /*grain_rows=*/1);
    }
  }
  result.rollup_millis = timer.ElapsedMillis() - result.fold_millis;

  // Finalize every cuboid in parallel (BoundLoss::Finalize is const and
  // thread-compatible); iceberg keys are emitted in ascending packed-key
  // order — the deterministic output contract.
  result.cuboids.resize(lattice.num_cuboids());
  auto finalize = [&](size_t begin, size_t end) {
    for (size_t m = begin; m < end; ++m) {
      CuboidDryRunInfo& info = result.cuboids[m];
      info.mask = static_cast<CuboidMask>(m);
      info.total_cells = cells[m].keys.size();
      for (size_t i = 0; i < cells[m].keys.size(); ++i) {
        if (bound->Finalize(cells[m].states[i]) > theta) {
          info.iceberg_keys.push_back(cells[m].keys[i]);
        }
      }
      std::sort(info.iceberg_keys.begin(), info.iceberg_keys.end());
    }
  };
  size_t lattice_cells = 0;
  for (const auto& c : cells) lattice_cells += c.keys.size();
  if (lattice_cells < kCellsPerWorkerDispatch * pool.num_threads()) {
    finalize(0, lattice.num_cuboids());
  } else {
    pool.ParallelForGrains(
        lattice.num_cuboids(),
        [&finalize](size_t, size_t begin, size_t end) { finalize(begin, end); },
        /*grain_rows=*/1);
  }
  if (keep_lattice) {
    result.present_cells = FlatHashSet(lattice_cells);
    for (const CuboidCells& c : cells) {
      for (uint64_t key : c.keys) result.present_cells.Insert(key);
    }
  }
  for (const CuboidDryRunInfo& info : result.cuboids) {
    result.total_cells += info.total_cells;
    result.total_iceberg_cells += info.iceberg_keys.size();
    if (!info.iceberg_keys.empty()) ++result.iceberg_cuboids;
  }
  result.millis = timer.ElapsedMillis();
  result.finalize_millis =
      result.millis - result.fold_millis - result.rollup_millis;
  return result;
}

}  // namespace tabula
