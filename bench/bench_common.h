#ifndef TABULA_BENCH_BENCH_COMMON_H_
#define TABULA_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/logging.h"
#include "data/taxi_gen.h"
#include "data/workload.h"
#include "loss/loss_registry.h"
#include "loss/mean_loss.h"
#include "loss/min_dist_loss.h"
#include "loss/regression_loss.h"

namespace tabula {
namespace bench {

/// Scaled-down stand-ins for the paper's experimental constants. The
/// authors ran 700M rows (100 GB) on a 5-node cluster; these defaults
/// target a single laptop core and are overridable via environment
/// variables (TABULA_SCALE, TABULA_QUERIES).
///
/// Pre-built sample budgets scale with the data: the paper's 100 MB and
/// 1 GB samples are 0.1% and 1% of its 100 GB table, so we use the same
/// fractions of our table's footprint and keep the paper's labels.
struct BenchConfig {
  size_t rows;
  size_t queries;
  uint64_t seed;

  static BenchConfig FromEnv() {
    BenchConfig config;
    config.rows =
        static_cast<size_t>(EnvInt64("TABULA_SCALE", 60000));
    config.queries = static_cast<size_t>(EnvInt64("TABULA_QUERIES", 50));
    config.seed = static_cast<uint64_t>(EnvInt64("TABULA_SEED", 7));
    return config;
  }

  /// FromEnv plus command-line overrides (`--seed N`, `--rows N`,
  /// `--queries N`; flags a bench doesn't know, e.g. `--smoke`, are left
  /// for its own parser). Benches must use THIS before the first
  /// TaxiTable() call so the seed the table is generated — and logged —
  /// with is the effective one, not the pre-override env default.
  static BenchConfig FromArgs(int argc, char** argv) {
    BenchConfig config = FromEnv();
    for (int i = 1; i + 1 < argc; ++i) {
      auto value = [&] {
        return static_cast<uint64_t>(std::strtoull(argv[i + 1], nullptr, 10));
      };
      if (std::strcmp(argv[i], "--seed") == 0) {
        config.seed = value();
        ++i;
      } else if (std::strcmp(argv[i], "--rows") == 0) {
        config.rows = static_cast<size_t>(value());
        ++i;
      } else if (std::strcmp(argv[i], "--queries") == 0) {
        config.queries = static_cast<size_t>(value());
        ++i;
      }
    }
    return config;
  }
};

/// Generates (once per process) the synthetic NYCtaxi table.
inline const Table& TaxiTable(const BenchConfig& config) {
  static std::unique_ptr<Table> table = [&] {
    TaxiGeneratorOptions gen;
    gen.num_rows = config.rows;
    gen.seed = config.seed;
    std::fprintf(stderr,
                 "[bench] generating %zu taxi rides (seed=%llu)...\n",
                 config.rows,
                 static_cast<unsigned long long>(config.seed));
    return TaxiGenerator(gen).Generate();
  }();
  return *table;
}

/// First n of the paper's 7 experiment attributes.
inline std::vector<std::string> Attributes(size_t n) {
  auto all = TaxiGenerator::ExperimentAttributes();
  all.resize(n);
  return all;
}

/// The paper's threshold sweeps per loss function (Figures 8, 11, 13,
/// 14). Heat-map thresholds are in km, converted to normalized units.
inline std::vector<double> HeatmapThresholdsKm() {
  return {0.25, 0.5, 1.0, 2.0};
}
inline std::vector<double> MeanThresholds() { return {0.025, 0.05, 0.10, 0.20}; }
inline std::vector<double> RegressionThresholdsDeg() {
  return {1.0, 2.0, 4.0, 8.0};
}
inline std::vector<double> HistogramThresholdsDollar() {
  return {0.25, 0.5, 1.0, 2.0};
}

/// Pre-built sample budget fractions matching the paper's 100MB / 1GB on
/// a 100GB table.
inline uint64_t Budget100MB(const Table& table) {
  return std::max<uint64_t>(table.MemoryBytes() / 1000, 1);
}
inline uint64_t Budget1GB(const Table& table) {
  return std::max<uint64_t>(table.MemoryBytes() / 100, 1);
}

/// Renders a double as JSON: integral values print as integers so cell
/// counts and thread counts stay exact, timings keep microsecond detail.
inline std::string JsonNumber(double v) {
  char buf[40];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v < 9.0e15 && v > -9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

/// \brief Minimal ordered JSON-object builder for bench artifacts.
///
/// Benches write their headline numbers to `BENCH_<name>.json` in the
/// working directory so before/after comparisons (e.g. the legacy vs
/// flat-hash dry-run engines) are tracked as committed files and CI can
/// gate on them, instead of living only in scrollback.
class JsonObject {
 public:
  JsonObject& Set(const std::string& key, double value) {
    fields_.emplace_back(key, JsonNumber(value));
    return *this;
  }
  JsonObject& Set(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted.push_back('\\');
      quoted.push_back(c);
    }
    quoted.push_back('"');
    fields_.emplace_back(key, std::move(quoted));
    return *this;
  }
  /// Pre-serialized value (nested object or array).
  JsonObject& SetRaw(const std::string& key, std::string raw) {
    fields_.emplace_back(key, std::move(raw));
    return *this;
  }
  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Joins rendered objects into a JSON array.
inline std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n  " + items[i];
  }
  out += "\n]";
  return out;
}

/// Writes `BENCH_<name>.json` into the working directory; returns false
/// (with a note on stderr) when the file cannot be created. `--smoke`
/// runs must not call it: from the repository root it would replace the
/// committed full-size record with a smoke-sized one.
inline bool WriteBenchJson(const std::string& name,
                           const JsonObject& payload) {
  std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    return false;
  }
  std::string body = payload.Render();
  std::fwrite(body.data(), 1, body.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
  return true;
}

/// Section header in the bench output.
inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// CSV block delimiter so EXPERIMENTS.md extraction is mechanical.
inline void PrintCsvHeader(const std::string& columns) {
  std::printf("csv,%s\n", columns.c_str());
}
inline void PrintCsvRow(const std::string& row) {
  std::printf("csv,%s\n", row.c_str());
}

}  // namespace bench
}  // namespace tabula

#endif  // TABULA_BENCH_BENCH_COMMON_H_
