#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <unordered_map>

#include "data/taxi_gen.h"
#include "storage/column.h"

namespace perfbench {

using tabula::DatasetView;
using tabula::QueryRequest;
using tabula::Result;
using tabula::RowId;
using tabula::Status;

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double acc = 0.0;
  for (size_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

size_t ZipfSampler::Draw(SplitMix* rng) const {
  const double u = rng->Uniform();
  size_t r = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(r, cdf_.size() - 1);
}

// ---------------------------------------------------------------------
// Latency statistics
// ---------------------------------------------------------------------

double SupportedTailQuantile(size_t count) {
  static const double kQuantiles[] = {0.9999, 0.999, 0.99, 0.9, 0.5};
  for (double q : kQuantiles) {
    // Samples strictly beyond the nearest-rank q-th value.
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(count) - 1e-9));
    if (count >= rank && count - rank >= 10) return q;
  }
  return 0.0;
}

double QuantileOfSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size()) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

LatencySummary Summarize(std::vector<double> millis) {
  LatencySummary s;
  s.count = millis.size();
  if (millis.empty()) return s;
  std::sort(millis.begin(), millis.end());
  double sum = 0.0;
  for (double v : millis) sum += v;
  s.mean_ms = sum / static_cast<double>(millis.size());
  s.p50_ms = QuantileOfSorted(millis, 0.5);
  s.p99_ms = QuantileOfSorted(millis, 0.99);
  s.tail_q = SupportedTailQuantile(millis.size());
  s.tail_ms = QuantileOfSorted(millis, s.tail_q);
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------

Outcome ClassifyAnswer(const Status& status, const tabula::ServeAnswer* answer) {
  if (!status.ok()) {
    return status.code() == tabula::StatusCode::kUnavailable ? Outcome::kRefused
                                                            : Outcome::kFailed;
  }
  if (answer == nullptr || answer->error || answer->result == nullptr) {
    return Outcome::kFailed;
  }
  if (answer->degraded) return Outcome::kDegraded;
  if (answer->result->store_degraded) return Outcome::kStoreDegraded;
  if (!answer->result->unavailable_shards.empty()) return Outcome::kShardDown;
  return Outcome::kOk;
}

// ---------------------------------------------------------------------
// θ audit
// ---------------------------------------------------------------------

ThetaAudit::ThetaAudit(const tabula::Table* table,
                       const tabula::LossFunction* loss, double theta)
    : table_(table), loss_(loss), theta_(theta) {}

Result<std::vector<RowId>> ThetaAudit::TruthRows(
    const QueryRequest& request) const {
  const size_t n = table_->num_rows();
  std::vector<char> keep(n, 1);
  for (const tabula::PredicateTerm& term : request.where) {
    TABULA_ASSIGN_OR_RETURN(size_t idx,
                            table_->schema().FieldIndex(term.column));
    const auto* col =
        dynamic_cast<const tabula::CategoricalColumn*>(&table_->column(idx));
    if (col == nullptr || !term.literal.is_string()) {
      return Status::InvalidArgument("audit supports categorical equality");
    }
    auto code = col->dict().Find(term.literal.AsString());
    if (!code.ok()) return std::vector<RowId>{};
    const uint32_t want = code.value();
    for (size_t r = 0; r < n; ++r) {
      if (col->CodeAt(r) != want) keep[r] = 0;
    }
  }
  for (const tabula::SpatialBound& bound : request.range.bounds) {
    TABULA_ASSIGN_OR_RETURN(size_t idx,
                            table_->schema().FieldIndex(bound.column));
    const auto* col =
        dynamic_cast<const tabula::DoubleColumn*>(&table_->column(idx));
    if (col == nullptr) return Status::InvalidArgument("bbox on non-double");
    for (size_t r = 0; r < n; ++r) {
      const double v = col->At(r);
      if (v < bound.lo || v > bound.hi) keep[r] = 0;
    }
  }
  std::vector<RowId> rows;
  for (size_t r = 0; r < n; ++r) {
    if (keep[r]) rows.push_back(static_cast<RowId>(r));
  }
  return rows;
}

Status ThetaAudit::Check(const AuditItem& item) {
  if (item.flagged) {
    ++flagged_;
    return Status::OK();
  }
  TABULA_ASSIGN_OR_RETURN(std::vector<RowId> truth, TruthRows(item.request));
  if (truth.empty()) {
    if (!item.sample.empty() && !item.request.range.empty()) {
      return Status::Internal("non-empty answer for an empty bbox");
    }
    ++checked_;
    return Status::OK();
  }
  if (item.empty_cell) {
    return Status::Internal("answer flagged empty_cell but " +
                            std::to_string(truth.size()) + " rows match");
  }
  TABULA_ASSIGN_OR_RETURN(
      double loss, loss_->Loss(DatasetView(table_, std::move(truth)),
                               DatasetView(table_, item.sample)));
  ++checked_;
  max_loss_ = std::max(max_loss_, loss);
  if (!(loss <= theta_ * (1.0 + 1e-7) + 1e-12)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "theta violated: loss %.6g > %.6g", loss,
                  theta_);
    return Status::Internal(buf);
  }
  return Status::OK();
}

uint64_t HashRows(uint64_t h, const std::vector<RowId>& rows) {
  for (RowId r : rows) {
    for (int b = 0; b < 4; ++b) {
      h ^= (static_cast<uint64_t>(r) >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  h ^= rows.size();
  h *= 1099511628211ull;
  return h;
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) ticks.total += x;
    ticks.steal = v[7];
  }
  std::fclose(f);
  return ticks;
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

std::unique_ptr<tabula::Table> MakeTaxiTable(size_t rows, uint64_t seed) {
  tabula::TaxiGeneratorOptions gen;
  gen.num_rows = rows;
  gen.seed = seed;
  return tabula::TaxiGenerator(gen).Generate();
}

std::vector<QueryRequest> PopularCells(const tabula::Table& table,
                                       const std::vector<std::string>& attrs,
                                       size_t count) {
  std::vector<const tabula::CategoricalColumn*> cols;
  for (const std::string& a : attrs) {
    cols.push_back(dynamic_cast<const tabula::CategoricalColumn*>(
        &table.column(table.schema().FieldIndex(a).value())));
  }
  // One pass counts every non-empty cell of every cuboid. A key packs
  // the cuboid mask and one byte per attribute (code + 1; 0 is '*'),
  // which is exact for the taxi attributes' small dictionaries.
  struct Cell {
    uint64_t rows = 0;
    uint32_t mask = 0;
    RowId example = 0;
  };
  const uint32_t masks = uint32_t{1} << attrs.size();
  std::unordered_map<uint64_t, Cell> cells;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (uint32_t mask = 0; mask < masks; ++mask) {
      uint64_t key = mask;
      for (size_t k = 0; k < attrs.size(); ++k) {
        const uint64_t code = (mask >> k) & 1 ? cols[k]->CodeAt(r) + 1 : 0;
        key = (key << 8) | (code & 0xFF);
      }
      Cell& cell = cells[key];
      if (cell.rows++ == 0) {
        cell.mask = mask;
        cell.example = static_cast<RowId>(r);
      }
    }
  }
  std::vector<std::pair<uint64_t, const Cell*>> ranked;
  for (const auto& [key, cell] : cells) ranked.emplace_back(key, &cell);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second->rows != b.second->rows ? a.second->rows > b.second->rows
                                            : a.first < b.first;
  });
  if (ranked.size() > count) ranked.resize(count);
  std::vector<QueryRequest> out;
  for (const auto& [key, cell] : ranked) {
    QueryRequest request;
    for (size_t k = 0; k < attrs.size(); ++k) {
      if (!((cell->mask >> k) & 1)) continue;
      tabula::PredicateTerm term;
      term.column = attrs[k];
      term.op = tabula::CompareOp::kEq;
      term.literal =
          tabula::Value(cols[k]->dict().At(cols[k]->CodeAt(cell->example)));
      request.where.push_back(std::move(term));
    }
    out.push_back(std::move(request));
  }
  return out;
}

std::vector<tabula::SpatialRange> PanZoomFrames(const tabula::Table& table,
                                                size_t count, uint64_t seed) {
  // Dashboard sessions: each anchors on where a random ride was picked
  // up and zooms in over four frames, panning a little at each step.
  static const double kWidths[] = {0.4, 0.2, 0.1, 0.05};
  const size_t xi = table.schema().FieldIndex("pickup_x").value();
  const size_t yi = table.schema().FieldIndex("pickup_y").value();
  SplitMix rng(seed);
  double cx = 0.5, cy = 0.5;
  std::vector<tabula::SpatialRange> frames;
  frames.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t zoom = i % std::size(kWidths);
    const double w = kWidths[zoom];
    if (zoom == 0) {
      const RowId r = static_cast<RowId>(rng.Below(table.num_rows()));
      cx = table.GetValue(xi, r).AsDouble();
      cy = table.GetValue(yi, r).AsDouble();
    }
    cx += (rng.Uniform() - 0.5) * w * 0.25;
    cy += (rng.Uniform() - 0.5) * w * 0.25;
    tabula::SpatialRange range;
    range.bounds.push_back({"pickup_x", cx - w / 2, cx + w / 2});
    range.bounds.push_back({"pickup_y", cy - w / 2, cy + w / 2});
    frames.push_back(std::move(range));
  }
  return frames;
}

}  // namespace perfbench
