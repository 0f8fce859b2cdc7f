#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include "common/thread_pool.h"
#include "core/tabula.h"
#include "data/taxi_gen.h"
#include "loss/loss_registry.h"
#include "obs/export.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "serve/query_server.h"

namespace tabula {
namespace {

int64_t IntAttr(const SpanRecord& rec, const std::string& key) {
  const AttrValue* v = rec.FindAttribute(key);
  EXPECT_NE(v, nullptr) << "missing attribute " << key;
  if (v == nullptr || !std::holds_alternative<int64_t>(*v)) return -1;
  return std::get<int64_t>(*v);
}

const SpanRecord* FindSpan(const std::vector<SpanRecord>& spans,
                           const std::string& name) {
  for (const auto& rec : spans) {
    if (rec.name == name) return &rec;
  }
  return nullptr;
}

// ---------- core tracer semantics ----------

TEST(TracerTest, DisabledTracerProducesInertSpans) {
  Tracer tracer(TracerOptions{TraceMode::kDisabled, 16});
  EXPECT_FALSE(tracer.enabled());
  Span span = tracer.StartSpan("anything");
  EXPECT_FALSE(span.recording());
  EXPECT_EQ(span.id(), 0u);
  span.SetAttribute("k", int64_t{1});  // must be a no-op, not a crash
  EXPECT_EQ(span.End(), 0.0);
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.recorder().total_recorded(), 0u);
}

TEST(TracerTest, OnDemandRecordsOnlyOptInsAndTheirChildren) {
  Tracer tracer(TracerOptions{TraceMode::kOnDemand, 16});
  // Not opted in, no parent: inert.
  EXPECT_FALSE(tracer.StartSpan("plain").recording());
  // Opted in: records.
  Span root = tracer.StartSpan("root", 0, /*opt_in=*/true);
  EXPECT_TRUE(root.recording());
  // Child of a recorded span records without its own opt-in — this is
  // what carries one traced request end-to-end through the stack.
  Span child = tracer.StartSpan("child", root.id());
  EXPECT_TRUE(child.recording());
  child.End();
  root.End();
  auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "child");
  EXPECT_EQ(spans[1].name, "root");
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id);
}

TEST(TracerTest, EndReturnsDurationAndIsIdempotent) {
  Tracer tracer;
  Span span = tracer.StartSpan("timed");
  double first = span.End();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(span.End(), first);  // second End() returns the same value
  auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);  // recorded exactly once
  EXPECT_NEAR(spans[0].DurationMillis(), first, 1e-9);
}

TEST(TracerTest, SpanIdsAreUniqueAndNonZero) {
  Tracer tracer;
  Span a = tracer.StartSpan("a");
  Span b = tracer.StartSpan("b");
  EXPECT_NE(a.id(), 0u);
  EXPECT_NE(b.id(), 0u);
  EXPECT_NE(a.id(), b.id());
}

TEST(TraceRecorderTest, RingEvictsOldestFirst) {
  Tracer tracer(TracerOptions{TraceMode::kAll, 3});
  for (int i = 0; i < 5; ++i) {
    tracer.StartSpan("span" + std::to_string(i)).End();
  }
  auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);  // capacity bound holds
  EXPECT_EQ(spans[0].name, "span2");
  EXPECT_EQ(spans[1].name, "span3");
  EXPECT_EQ(spans[2].name, "span4");
  EXPECT_EQ(tracer.recorder().total_recorded(), 5u);
  EXPECT_EQ(tracer.recorder().dropped(), 2u);
}

TEST(TracerTest, ParentChildLinkageAcrossThreadPoolHop) {
  Tracer tracer;
  ThreadPool pool(4);
  Span root = tracer.StartSpan("fanout");
  const uint64_t root_id = root.id();
  // The id is a plain integer, so handing it to pool tasks is the whole
  // cross-thread propagation story.
  pool.ParallelFor(8, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Span child = tracer.StartSpan("task", root_id);
      child.SetAttribute("index", i);
    }
  });
  root.End();
  auto spans = tracer.Snapshot();
  auto subtree = SpanSubtree(spans, root_id);
  ASSERT_EQ(subtree.size(), 9u);  // root + 8 children
  size_t children = 0;
  for (const auto& rec : subtree) {
    if (rec.parent_id == root_id) ++children;
  }
  EXPECT_EQ(children, 8u);
}

TEST(SpanSubtreeTest, ExtractsOnlyTheRequestedTree) {
  Tracer tracer;
  Span a = tracer.StartSpan("a");
  Span a1 = tracer.StartSpan("a1", a.id());
  Span other = tracer.StartSpan("other");
  Span a1x = tracer.StartSpan("a1x", a1.id());
  a1x.End();
  other.End();
  a1.End();
  uint64_t a_id = a.id();
  a.End();
  auto subtree = SpanSubtree(tracer.Snapshot(), a_id);
  ASSERT_EQ(subtree.size(), 3u);
  EXPECT_EQ(FindSpan(subtree, "other"), nullptr);
  EXPECT_NE(FindSpan(subtree, "a1x"), nullptr);
}

// ---------- stack instrumentation ----------

class ObsStackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TaxiGeneratorOptions gen;
    gen.num_rows = 20000;
    gen.seed = 91;
    table_ = TaxiGenerator(gen).Generate();
    auto loss = MakeLossFunction("mean_loss", {.columns = {"fare_amount"}});
    ASSERT_TRUE(loss.ok());
    options_.cubed_attributes = {"payment_type", "rate_code"};
    options_.owned_loss = std::move(loss).value();
    options_.threshold = 0.05;
  }

  std::unique_ptr<Table> table_;
  TabulaOptions options_;
};

TEST_F(ObsStackTest, InitStatsAreExactlyTheInitSpanDurations) {
  Tracer tracer;
  options_.tracer = &tracer;
  auto tabula = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(tabula.ok());
  const TabulaInitStats& stats = tabula.value()->init_stats();
  const auto& trace = tabula.value()->init_trace();

  const SpanRecord* init = FindSpan(trace, "tabula.init");
  const SpanRecord* global = FindSpan(trace, "tabula.init.global_sample");
  const SpanRecord* dry = FindSpan(trace, "tabula.init.dry_run");
  const SpanRecord* real = FindSpan(trace, "tabula.init.real_run");
  const SpanRecord* sel = FindSpan(trace, "tabula.init.selection");
  ASSERT_NE(init, nullptr);
  ASSERT_NE(global, nullptr);
  ASSERT_NE(dry, nullptr);
  ASSERT_NE(real, nullptr);
  ASSERT_NE(sel, nullptr);

  // Not approximately: the stats ARE the span durations.
  EXPECT_EQ(stats.total_millis, init->DurationMillis());
  EXPECT_EQ(stats.global_sample_millis, global->DurationMillis());
  EXPECT_EQ(stats.dry_run_millis, dry->DurationMillis());
  EXPECT_EQ(stats.real_run_millis, real->DurationMillis());
  EXPECT_EQ(stats.selection_millis, sel->DurationMillis());

  // Every stage is a child of the init root and carries its key counts.
  for (const SpanRecord* stage : {global, dry, real, sel}) {
    EXPECT_EQ(stage->parent_id, init->span_id);
  }
  EXPECT_EQ(IntAttr(*init, "iceberg_cells"),
            static_cast<int64_t>(stats.iceberg_cells));
  EXPECT_EQ(IntAttr(*dry, "rows_scanned"),
            static_cast<int64_t>(table_->num_rows()));
}

TEST_F(ObsStackTest, InitTracePopulatedEvenWithoutExternalTracer) {
  auto tabula = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(tabula.ok());
  // No tracer attached, but the stage spans (and span-derived stats)
  // exist anyway via the internal fallback tracer.
  EXPECT_EQ(tabula.value()->init_trace().size(), 5u);
  EXPECT_GT(tabula.value()->init_stats().total_millis, 0.0);
}

TEST_F(ObsStackTest, QueryAndRefreshEmitSpans) {
  Tracer tracer;
  options_.tracer = &tracer;
  auto tabula = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(tabula.ok());
  tracer.Clear();

  QueryRequest request(
      {{"payment_type", CompareOp::kEq, Value("Cash")}});
  auto response = tabula.value()->Query(request);
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->span_id, 0u);
  // Span-derived latency is the reported latency.
  auto spans = tracer.Snapshot();
  const SpanRecord* qspan = FindSpan(spans, "tabula.query");
  ASSERT_NE(qspan, nullptr);
  EXPECT_EQ(qspan->span_id, response->span_id);
  EXPECT_EQ(qspan->DurationMillis(), response->result.data_system_millis);
  EXPECT_EQ(IntAttr(*qspan, "terms"), 1);

  tracer.Clear();
  Tabula::RefreshStats stats;
  ASSERT_TRUE(tabula.value()->Refresh(&stats).ok());
  auto refresh_spans = tracer.Snapshot();
  const SpanRecord* rspan = FindSpan(refresh_spans, "tabula.refresh");
  ASSERT_NE(rspan, nullptr);
  EXPECT_EQ(rspan->DurationMillis(), stats.millis);
  EXPECT_EQ(IntAttr(*rspan, "new_rows"), 0);
}

TEST_F(ObsStackTest, ServeSpansLinkServerToMiddleware) {
  Tracer tracer;
  options_.tracer = &tracer;
  auto tabula = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(tabula.ok());
  tracer.Clear();

  QueryServerOptions sopts;
  sopts.tracer = &tracer;
  QueryServer server(tabula.value().get(), sopts);

  QueryRequest request(
      {{"payment_type", CompareOp::kEq, Value("Cash")}});
  auto answer = server.Query(request);
  ASSERT_TRUE(answer.ok());
  ASSERT_NE(answer->span_id, 0u);

  auto subtree = SpanSubtree(tracer.Snapshot(), answer->span_id);
  const SpanRecord* serve = FindSpan(subtree, "serve.query");
  const SpanRecord* inner = FindSpan(subtree, "tabula.query");
  ASSERT_NE(serve, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->parent_id, serve->span_id);
  EXPECT_EQ(serve->DurationMillis(), answer->total_millis);

  // Cache hit: a serve span, but no middleware child.
  auto hit = server.Query(request);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  auto hit_tree = SpanSubtree(tracer.Snapshot(), hit->span_id);
  ASSERT_EQ(hit_tree.size(), 1u);
  const AttrValue* cache_attr = hit_tree[0].FindAttribute("cache_hit");
  ASSERT_NE(cache_attr, nullptr);
  EXPECT_TRUE(std::get<bool>(*cache_attr));
}

TEST_F(ObsStackTest, BatchSpansParentUnderOneBatchSpan) {
  Tracer tracer;
  auto tabula = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(tabula.ok());
  tracer.Clear();

  QueryServerOptions sopts;
  sopts.tracer = &tracer;
  QueryServer server(tabula.value().get(), sopts);

  std::vector<QueryRequest> requests;
  requests.emplace_back(std::vector<PredicateTerm>{
      {"payment_type", CompareOp::kEq, Value("Cash")}});
  requests.emplace_back(std::vector<PredicateTerm>{
      {"payment_type", CompareOp::kEq, Value("Credit")}});
  auto batch = server.BatchQuery(requests);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 2u);

  auto spans = tracer.Snapshot();
  const SpanRecord* batch_span = FindSpan(spans, "serve.batch");
  ASSERT_NE(batch_span, nullptr);
  EXPECT_EQ(IntAttr(*batch_span, "cells"), 2);
  // Each item's serve.query span crossed the ThreadPool hop with the
  // batch span as parent.
  for (const auto& item : *batch) {
    ASSERT_TRUE(item.status.ok());
    ASSERT_NE(item.answer.span_id, 0u);
    const SpanRecord* item_span = nullptr;
    for (const auto& rec : spans) {
      if (rec.span_id == item.answer.span_id) item_span = &rec;
    }
    ASSERT_NE(item_span, nullptr);
    EXPECT_EQ(item_span->parent_id, batch_span->span_id);
  }
}

TEST_F(ObsStackTest, OnDemandTracesOnlyOptedInRequests) {
  Tracer tracer(TracerOptions{TraceMode::kOnDemand, 256});
  options_.tracer = &tracer;
  auto tabula = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(tabula.ok());
  tracer.Clear();

  QueryServerOptions sopts;
  sopts.tracer = &tracer;
  sopts.enable_cache = false;
  QueryServer server(tabula.value().get(), sopts);

  QueryRequest plain(
      {{"payment_type", CompareOp::kEq, Value("Cash")}});
  auto untraced = server.Query(plain);
  ASSERT_TRUE(untraced.ok());
  EXPECT_EQ(untraced->span_id, 0u);
  EXPECT_TRUE(tracer.Snapshot().empty());

  QueryRequest traced = plain;
  traced.trace = true;
  auto answer = server.Query(traced);
  ASSERT_TRUE(answer.ok());
  EXPECT_NE(answer->span_id, 0u);
  // The opt-in propagated through to the middleware span.
  auto subtree = SpanSubtree(tracer.Snapshot(), answer->span_id);
  EXPECT_NE(FindSpan(subtree, "tabula.query"), nullptr);
}

TEST_F(ObsStackTest, SlowQueryLogCapturesKeyAndSpanTree) {
  Tracer tracer;
  options_.tracer = &tracer;
  auto tabula = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(tabula.ok());

  QueryServerOptions sopts;
  sopts.tracer = &tracer;
  sopts.slow_query_ms = 1e-6;  // everything is "slow"
  sopts.enable_cache = false;
  QueryServer server(tabula.value().get(), sopts);

  QueryRequest request(
      {{"payment_type", CompareOp::kEq, Value("Cash")}});
  auto answer = server.Query(request);
  ASSERT_TRUE(answer.ok());

  ASSERT_TRUE(server.slow_query_log().enabled());
  auto entries = server.slow_query_log().Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].total_millis, answer->total_millis);
  EXPECT_EQ(entries[0].span_id, answer->span_id);
  EXPECT_NE(entries[0].predicate_key.find("payment_type"),
            std::string::npos);
  // The rendered tree names both layers.
  EXPECT_NE(entries[0].span_tree.find("serve.query"), std::string::npos);
  EXPECT_NE(entries[0].span_tree.find("tabula.query"), std::string::npos);
  EXPECT_NE(server.slow_query_log().RenderText().find("serve.query"),
            std::string::npos);
}

TEST_F(ObsStackTest, SlowQueryLogDisabledByDefault) {
  auto tabula = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(tabula.ok());
  QueryServer server(tabula.value().get());
  auto answer = server.Query(QueryRequest{});
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(server.slow_query_log().enabled());
  EXPECT_EQ(server.slow_query_log().total_logged(), 0u);
}

// ---------- exporters ----------

TEST(ExportTest, RenderSpanTreeIndentsChildren) {
  Tracer tracer;
  Span root = tracer.StartSpan("serve.query");
  Span child = tracer.StartSpan("tabula.query", root.id());
  child.SetAttribute("terms", int64_t{2});
  child.End();
  root.End();
  std::string text = RenderSpanTree(tracer.Snapshot());
  EXPECT_NE(text.find("serve.query"), std::string::npos);
  EXPECT_NE(text.find("\n  tabula.query"), std::string::npos);  // indented
  EXPECT_NE(text.find("terms=2"), std::string::npos);
}

TEST(ExportTest, OtlpJsonHasSpanAndParentIds) {
  Tracer tracer;
  Span root = tracer.StartSpan("root");
  Span child = tracer.StartSpan("child", root.id());
  child.SetAttribute("rows", int64_t{42});
  child.SetAttribute("note", "hi \"there\"");
  child.End();
  root.End();
  std::string json = ToOtlpJson(tracer.Snapshot(), "tabula-test");
  EXPECT_NE(json.find("\"resourceSpans\""), std::string::npos);
  EXPECT_NE(json.find("\"scopeSpans\""), std::string::npos);
  EXPECT_NE(json.find("\"tabula-test\""), std::string::npos);
  EXPECT_NE(json.find("\"spanId\""), std::string::npos);
  EXPECT_NE(json.find("\"parentSpanId\""), std::string::npos);
  EXPECT_NE(json.find("\"traceId\""), std::string::npos);
  // OTLP JSON encodes int attribute values as strings.
  EXPECT_NE(json.find("\"intValue\":\"42\""), std::string::npos);
  // Quotes inside string attributes survive escaped.
  EXPECT_NE(json.find("hi \\\"there\\\""), std::string::npos);
  EXPECT_NE(json.find("startTimeUnixNano"), std::string::npos);
}

TEST(ExportTest, SpansOfOneRequestShareATraceId) {
  Tracer tracer;
  Span root = tracer.StartSpan("root");
  Span child = tracer.StartSpan("child", root.id());
  child.End();
  root.End();
  std::string json = ToOtlpJson(tracer.Snapshot());
  // Both spans derive their traceId from the root ancestor: the root's
  // trace id (32 hex chars built from its span id) must appear twice.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(tracer.Snapshot()[1].span_id));
  std::string root_hex(buf);
  size_t first = json.find(root_hex);
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(json.find(root_hex, first + 1), std::string::npos);
}

}  // namespace
}  // namespace tabula
