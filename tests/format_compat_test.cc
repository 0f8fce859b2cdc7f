/// Old-format readers stay: v1 and v2 cube files (TBLC) and shard
/// manifests (TBLS) still load and answer exactly like the file they
/// were derived from. (v3 is pinned both ways by
/// StoreDiff.FormatCompatibilityAcrossStoreBoundary; the wire codec's
/// v1 request encoding by
/// WireCodecTest.QueryRequestRangeRoundTripsAndStaysV1WhenAbsent.)
///
/// Nothing writes v1/v2 any more, so each test saves a v3 file (store
/// off, no spatial grid) and rewrites it into the older layouts:
///  - v2 is v3 without the spatial-grid presence words;
///  - v1 is v2 without the covered row count in the header — a TBLC v1
///    file covers the whole table, a TBLS v1 manifest carries the
///    count at its tail instead.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/tabula.h"
#include "data/taxi_gen.h"
#include "loss/mean_loss.h"
#include "shard/sharded_tabula.h"

namespace tabula {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Walks a saved file section by section, copying what the target
/// layout keeps.
class Rewriter {
 public:
  explicit Rewriter(std::string in) : in_(std::move(in)) {}

  uint64_t U64At(size_t pos) const {
    uint64_t v = 0;
    std::memcpy(&v, in_.data() + pos, sizeof(v));
    return v;
  }
  void Keep(size_t n) {
    out_.append(in_, pos_, n);
    pos_ += n;
  }
  void Drop(size_t n) { pos_ += n; }
  /// A length-prefixed run of `width`-byte items (strings, row vectors).
  void KeepCounted(size_t width) { Keep(8 + U64At(pos_) * width); }
  void KeepRest() { Keep(in_.size() - pos_); }
  void SetVersion(uint32_t version) {
    std::memcpy(out_.data() + 4, &version, sizeof(version));
  }
  void Append(uint64_t v) {
    out_.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  size_t pos() const { return pos_; }
  const std::string& out() const { return out_; }

  /// The header after magic + version: [rows], fingerprint, loss name,
  /// θ, attributes. Returns the covered row count.
  uint64_t Header(bool keep_rows) {
    const uint64_t rows = U64At(pos_);
    keep_rows ? Keep(8) : Drop(8);
    Keep(8);             // fingerprint
    KeepCounted(1);      // loss name
    Keep(8);             // θ
    const uint64_t attrs = U64At(pos_);
    Keep(8);
    for (uint64_t a = 0; a < attrs; ++a) KeepCounted(1);
    return rows;
  }
  /// Cells + samples, the shared cube section.
  void Cells() {
    Keep(8 + U64At(pos_) * 16);
    const uint64_t samples = U64At(pos_);
    Keep(8);
    for (uint64_t s = 0; s < samples; ++s) KeepCounted(sizeof(RowId));
  }

 private:
  std::string in_;
  std::string out_;
  size_t pos_ = 0;
};

std::string CubeFileAt(const std::string& v3, uint32_t version) {
  Rewriter rw(v3);
  rw.Keep(8);  // magic + version
  rw.Header(/*keep_rows=*/version >= 2);
  rw.KeepCounted(sizeof(RowId));  // global sample
  rw.Cells();
  rw.Keep(3 * 8 + 4 * 8);  // stage timings + cell counts
  rw.Drop(4);              // no grid presence word before v3
  EXPECT_EQ(rw.pos(), v3.size());
  rw.SetVersion(version);
  return rw.out();
}

std::string ManifestAt(const std::string& v3, uint32_t version) {
  Rewriter rw(v3);
  rw.Keep(8);
  const uint64_t rows = rw.Header(/*keep_rows=*/version >= 2);
  const uint64_t shards = rw.U64At(rw.pos());
  rw.Keep(8 + 4);                 // shard count + partition
  rw.KeepCounted(sizeof(RowId));  // global sample
  for (uint64_t s = 0; s < shards; ++s) {
    rw.KeepCounted(sizeof(RowId));  // row list
    rw.Keep(8);                     // row-list fingerprint
    rw.Cells();
    rw.Drop(4);  // no grid presence word before v3
  }
  rw.KeepRest();  // merged directory + override samples
  if (version == 1) rw.Append(rows);
  rw.SetVersion(version);
  return rw.out();
}

class FormatCompatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TaxiGeneratorOptions gen;
    gen.num_rows = 6000;
    gen.seed = 17;
    table_ = TaxiGenerator(gen).Generate();
    loss_ = std::make_unique<MeanLoss>("fare_amount");
    options_.cubed_attributes = {"payment_type", "rate_code"};
    options_.loss = loss_.get();
    options_.threshold = 0.03;
  }

  void ExpectSameAnswers(const QueryEngine& want, const QueryEngine& got) {
    const std::vector<std::vector<PredicateTerm>> queries = {
        {},
        {{"payment_type", CompareOp::kEq, Value("Cash")}},
        {{"rate_code", CompareOp::kEq, Value("JFK")}},
        {{"payment_type", CompareOp::kEq, Value("Credit")},
         {"rate_code", CompareOp::kEq, Value("Standard")}},
    };
    for (const auto& where : queries) {
      auto a = want.Query(QueryRequest(where));
      auto b = got.Query(QueryRequest(where));
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a.value().result.sample.ToRowIds(),
                b.value().result.sample.ToRowIds());
      EXPECT_EQ(a.value().result.from_local_sample,
                b.value().result.from_local_sample);
    }
  }

  std::unique_ptr<Table> table_;
  std::unique_ptr<MeanLoss> loss_;
  TabulaOptions options_;
};

TEST_F(FormatCompatTest, CubeFileV1AndV2StillLoad) {
  auto engine = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::string path = TempPath("format_compat.tblc");
  ASSERT_TRUE(engine.value()->Save(path).ok());
  const std::string v3 = ReadFile(path);
  for (uint32_t version : {1u, 2u}) {
    WriteFile(path, CubeFileAt(v3, version));
    auto loaded = Tabula::Load(*table_, options_, path);
    ASSERT_TRUE(loaded.ok())
        << "v" << version << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded.value()->cube_table().size(),
              engine.value()->cube_table().size());
    ExpectSameAnswers(*engine.value(), *loaded.value());
  }
  std::filesystem::remove(path);
}

TEST_F(FormatCompatTest, ManifestV1AndV2StillLoad) {
  ShardedTabulaOptions sharded;
  sharded.base = options_;
  sharded.num_shards = 3;
  auto engine = ShardedTabula::Initialize(*table_, sharded);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::string path = TempPath("format_compat.tbls");
  ASSERT_TRUE(engine.value()->Save(path).ok());
  const std::string v3 = ReadFile(path);
  for (uint32_t version : {1u, 2u}) {
    WriteFile(path, ManifestAt(v3, version));
    auto loaded = ShardedTabula::Load(*table_, sharded, path);
    ASSERT_TRUE(loaded.ok())
        << "v" << version << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded.value()->MergedIcebergKeys(),
              engine.value()->MergedIcebergKeys());
    ExpectSameAnswers(*engine.value(), *loaded.value());
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tabula
