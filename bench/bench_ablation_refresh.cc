/// Ablation: incremental maintenance (Tabula::Refresh) vs full
/// re-initialization — the extension beyond the paper (DESIGN.md §4).
///
/// Sweeps the append fraction and compares (a) Refresh() on the built
/// engine, which holds its dry run's finest states, (b) Refresh() on an
/// engine restored with Save→Load, which first re-derives those states
/// (the one lazy derivation left), and (c) a full Initialize() from
/// scratch, all restoring the identical deterministic guarantee.

#include <cstdio>
#include <filesystem>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "core/tabula.h"

namespace {

using namespace tabula;

std::unique_ptr<Table> FreshTable(size_t rows, uint64_t seed) {
  TaxiGeneratorOptions gen;
  gen.num_rows = rows;
  gen.seed = seed;
  return TaxiGenerator(gen).Generate();
}

void AppendFrom(Table* target, const Table& source, size_t n) {
  for (RowId r = 0; r < n && r < source.num_rows(); ++r) {
    Status st = target->AppendRowFrom(source, r);
    TABULA_CHECK(st.ok());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tabula::bench;

  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  size_t base_rows = std::min<size_t>(config.rows, 40000);
  auto extra = FreshTable(base_rows, config.seed + 1);
  auto attrs = Attributes(5);
  MeanLoss loss("fare_amount");

  std::printf("Incremental-maintenance ablation (base=%zu rows, mean loss "
              "theta=5%%)\n",
              base_rows);
  PrintHeader("Refresh vs re-initialize, by append fraction");
  std::printf("%-10s %18s %18s %18s\n", "append", "refresh_built_ms",
              "refresh_loaded_ms", "reinitialize_ms");
  PrintCsvHeader("ablation,append_fraction,refresh_built_ms,"
                 "refresh_loaded_ms,reinit_ms,new_iceberg,resampled");
  const std::string cube_path =
      (std::filesystem::temp_directory_path() / "bench_ablation_refresh.tblc")
          .string();

  for (double fraction : {0.01, 0.05, 0.25, 1.0}) {
    size_t append_rows = static_cast<size_t>(base_rows * fraction);

    double built_ms = 0.0, loaded_ms = 0.0, reinit_ms = 0.0;
    Tabula::RefreshStats built_stats;

    // (a) the built engine: maintenance state from its dry run.
    {
      auto table = FreshTable(base_rows, config.seed);
      TabulaOptions opts;
      opts.cubed_attributes = attrs;
      opts.loss = &loss;
      opts.threshold = 0.05;
      auto tabula = Tabula::Initialize(*table, opts);
      TABULA_CHECK(tabula.ok());
      AppendFrom(table.get(), *extra, append_rows);
      Stopwatch t;
      TABULA_CHECK(tabula.value()->Refresh(&built_stats).ok());
      built_ms = t.ElapsedMillis();
    }
    // (b) the same cube after Save→Load: the first Refresh re-derives
    //     the finest states the file does not persist.
    {
      auto table = FreshTable(base_rows, config.seed);
      TabulaOptions opts;
      opts.cubed_attributes = attrs;
      opts.loss = &loss;
      opts.threshold = 0.05;
      {
        auto built = Tabula::Initialize(*table, opts);
        TABULA_CHECK(built.ok());
        TABULA_CHECK(built.value()->Save(cube_path).ok());
      }
      auto tabula = Tabula::Load(*table, opts, cube_path);
      TABULA_CHECK(tabula.ok());
      AppendFrom(table.get(), *extra, append_rows);
      Stopwatch t;
      Tabula::RefreshStats stats;
      TABULA_CHECK(tabula.value()->Refresh(&stats).ok());
      loaded_ms = t.ElapsedMillis();
    }
    // (c) full re-initialization on the grown table.
    {
      auto table = FreshTable(base_rows, config.seed);
      AppendFrom(table.get(), *extra, append_rows);
      TabulaOptions opts;
      opts.cubed_attributes = attrs;
      opts.loss = &loss;
      opts.threshold = 0.05;
      Stopwatch t;
      auto tabula = Tabula::Initialize(*table, opts);
      TABULA_CHECK(tabula.ok());
      reinit_ms = t.ElapsedMillis();
    }

    std::printf("%-10.0f%% %17.0f %18.0f %18.0f   (new iceberg %zu, "
                "resampled %zu)\n",
                fraction * 100, built_ms, loaded_ms, reinit_ms,
                built_stats.new_iceberg_cells, built_stats.resampled_cells);
    char row[192];
    std::snprintf(row, sizeof(row), "refresh,%.2f,%.1f,%.1f,%.1f,%zu,%zu",
                  fraction, built_ms, loaded_ms, reinit_ms,
                  built_stats.new_iceberg_cells, built_stats.resampled_cells);
    PrintCsvRow(row);
  }
  std::remove(cube_path.c_str());
  return 0;
}
