/// Built-versus-loaded ingest parity, run under `ctest -L ingest` and
/// `ctest -L shard`. A built engine keeps its dry run's finest-cell
/// states; a loaded engine re-derives them from the rows it has folded
/// on its first ingest cycle. Both must then maintain the cube alike:
/// the same RefreshStats every cycle and byte-identical Save files
/// afterwards, at K ∈ {1, 2, 4}, under a reference-free loss (mean) and
/// a reference-dependent one (heat-map). The resume_partial variant
/// loads while appended rows are already in the table, so the loaded
/// engine's re-derivation must stop at the rows its file covered.
/// Range routing sends a one-row batch to a single shard, so a leading
/// one-row batch makes the first cycle merge untouched shards whose
/// states a loaded engine re-derived.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic_gen.h"
#include "engine_at_k.h"
#include "loss/loss_registry.h"

namespace tabula {
namespace {

constexpr size_t kShardCounts[] = {1, 2, 4};
constexpr size_t kBaseRows = 900;
constexpr size_t kAppendRows = 301;

struct LossCase {
  const char* name;
  std::vector<std::string> columns;
  double threshold;
};

const LossCase kLosses[] = {
    {"mean_loss", {"value"}, 0.05},
    {"heatmap_loss", {"x", "y"}, 0.005},
};

std::unique_ptr<Table> MakeFullTable() {
  SyntheticGeneratorOptions gen;
  gen.seed = 23;
  gen.num_rows = kBaseRows + kAppendRows;
  return SyntheticGenerator(gen).Generate();
}

/// Prefix copy of `full` sharing its dictionaries, so appended rows keep
/// their codes and no cycle degenerates into a full rebuild.
std::unique_ptr<Table> TablePrefix(const Table& full, size_t rows) {
  std::vector<RowId> ids(rows);
  for (RowId r = 0; r < rows; ++r) ids[r] = r;
  return full.TakeRows(ids);
}

ShardedTabulaOptions MakeOptions(const LossCase& lc, size_t k) {
  LossParams params;
  params.columns = lc.columns;
  auto loss = MakeLossFunction(lc.name, params);
  EXPECT_TRUE(loss.ok()) << loss.status().ToString();
  ShardedTabulaOptions o;
  o.base.cubed_attributes =
      SyntheticGenerator(SyntheticGeneratorOptions{}).CategoricalColumns();
  o.base.owned_loss =
      std::shared_ptr<const LossFunction>(std::move(loss).value());
  o.base.threshold = lc.threshold;
  o.num_shards = k;
  o.partition = ShardPartition::kRange;
  return o;
}

/// Appends the next `n` rows of `full` to `table`.
void AppendRows(Table* table, const Table& full, size_t n) {
  const size_t lo = table->num_rows();
  for (size_t r = lo; r < lo + n; ++r) {
    ASSERT_TRUE(table->AppendRowFrom(full, static_cast<RowId>(r)).ok());
  }
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string Describe(const QueryEngine::RefreshStats& s) {
  return "new_rows=" + std::to_string(s.new_rows) +
         " new_iceberg=" + std::to_string(s.new_iceberg_cells) +
         " dropped=" + std::to_string(s.dropped_iceberg_cells) +
         " rechecked=" + std::to_string(s.rechecked_cells) +
         " resampled=" + std::to_string(s.resampled_cells) +
         " full_rebuild=" + std::to_string(s.full_rebuild);
}

/// Builds over the base rows and saves; appends the first batch before
/// loading the file when `resume_partial`; then refreshes both engines
/// once per batch, appending each batch that is not already pending.
/// `batches` must sum to kAppendRows.
void RunParity(const LossCase& lc, size_t k, bool resume_partial,
               const std::vector<size_t>& batches) {
  SCOPED_TRACE(std::string(lc.name) + " K=" + std::to_string(k) +
               " resume_partial=" + std::to_string(resume_partial));
  auto full = MakeFullTable();
  auto table = TablePrefix(*full, kBaseRows);
  const ShardedTabulaOptions options = MakeOptions(lc, k);
  const std::string dir = ::testing::TempDir();
  const std::string tag = std::string(lc.name) + "_" + std::to_string(k) +
                          "_" + std::to_string(resume_partial);
  const std::string saved = dir + "/parity_saved_" + tag;
  const std::string built_out = dir + "/parity_built_" + tag;
  const std::string loaded_out = dir + "/parity_loaded_" + tag;

  auto built = EngineAtK::Initialize(*table, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE(built->get()->Save(saved).ok());
  if (resume_partial) AppendRows(table.get(), *full, batches[0]);
  auto loaded = EngineAtK::Load(*table, options, saved, resume_partial);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  for (size_t b = 0; b < batches.size(); ++b) {
    if (b > 0 || !resume_partial) AppendRows(table.get(), *full, batches[b]);
    QueryEngine::RefreshStats built_stats, loaded_stats;
    ASSERT_TRUE(built->get()->Refresh(&built_stats).ok());
    ASSERT_TRUE(loaded->get()->Refresh(&loaded_stats).ok());
    EXPECT_FALSE(built_stats.full_rebuild);
    EXPECT_EQ(built_stats.new_rows, batches[b]);
    EXPECT_EQ(Describe(built_stats), Describe(loaded_stats))
        << "cycle " << b;
  }

  ASSERT_TRUE(built->get()->Save(built_out).ok());
  ASSERT_TRUE(loaded->get()->Save(loaded_out).ok());
  const std::string built_bytes = FileBytes(built_out);
  EXPECT_FALSE(built_bytes.empty());
  EXPECT_TRUE(built_bytes == FileBytes(loaded_out))
      << "built and loaded engines saved different cubes";
  EXPECT_EQ(built->IcebergKeys(), loaded->IcebergKeys());
  for (const std::string& path : {saved, built_out, loaded_out}) {
    std::remove(path.c_str());
  }
}

TEST(LoadParity, BuiltAndLoadedEnginesIngestAlike) {
  for (const LossCase& lc : kLosses) {
    for (size_t k : kShardCounts) {
      RunParity(lc, k, /*resume_partial=*/false, {1, 150, 150});
    }
  }
}

TEST(LoadParity, ResumePartialLoadFoldsOnlyItsCoveredRows) {
  for (const LossCase& lc : kLosses) {
    for (size_t k : kShardCounts) {
      RunParity(lc, k, /*resume_partial=*/true, {150, 1, 150});
    }
  }
}

}  // namespace
}  // namespace tabula
