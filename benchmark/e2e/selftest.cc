/// The benchmark's own tests: seeded inputs are reproducible, metric
/// names are well formed, and a wrong expected count fails the ledger.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "baseline/bruteforce.h"
#include "e2e/inputs.h"
#include "e2e/measure.h"

namespace dualsim::e2e {
namespace {

bool SameGraph(const Graph& a, const Graph& b) {
  return a.offsets() == b.offsets() && a.neighbors() == b.neighbors();
}

TEST(E2eInputs, SameSeedSameGraphStreamAndCount) {
  for (Workload w : AllWorkloads()) {
    const Graph a = GenerateGraph(w, 7).graph;
    const Graph b = GenerateGraph(w, 7).graph;
    EXPECT_TRUE(SameGraph(a, b)) << WorkloadName(w);
    if (w == Workload::kEnumHot) continue;  // q4 oracle is the slow one
    EXPECT_EQ(CountOccurrences(a, MakeQuery(w)),
              CountOccurrences(b, MakeQuery(w)));
  }
  const Graph g = GenerateGraph(Workload::kServeUpdate, 7).graph;
  UpdateStream s1(g, DeriveSeed(7, Workload::kServeUpdate, 1));
  UpdateStream s2(g, DeriveSeed(7, Workload::kServeUpdate, 1));
  for (int batch = 0; batch < 20; ++batch) {
    EXPECT_EQ(s1.NextBatch(8), s2.NextBatch(8)) << "batch " << batch;
  }
  EXPECT_TRUE(SameGraph(s1.Shadow(), s2.Shadow()));
}

TEST(E2eInputs, DifferentSeedDifferentGraph) {
  for (Workload w : AllWorkloads()) {
    EXPECT_FALSE(SameGraph(GenerateGraph(w, 1).graph,
                           GenerateGraph(w, 2).graph))
        << WorkloadName(w);
  }
}

TEST(E2eInputs, UpdateBatchesFlipPresenceOfDistinctPairs) {
  const Graph g = GenerateGraph(Workload::kServeUpdate, 3).graph;
  UpdateStream stream(g, 11);
  Graph before = stream.Shadow();
  for (int batch = 0; batch < 10; ++batch) {
    const auto deltas = stream.NextBatch(8);
    ASSERT_EQ(deltas.size(), 8u);
    std::set<std::pair<VertexId, VertexId>> pairs;
    for (const incr::EdgeDelta& d : deltas) {
      EXPECT_LT(d.u, d.v);
      EXPECT_TRUE(pairs.insert({d.u, d.v}).second);
      EXPECT_EQ(d.op == incr::DeltaOp::kRemoveEdge, before.HasEdge(d.u, d.v));
    }
    const Graph after = stream.Shadow();
    for (const incr::EdgeDelta& d : deltas) {
      EXPECT_NE(before.HasEdge(d.u, d.v), after.HasEdge(d.u, d.v));
    }
    std::int64_t net = 0;
    for (const incr::EdgeDelta& d : deltas) {
      net += d.op == incr::DeltaOp::kAddEdge ? 1 : -1;
    }
    EXPECT_EQ(static_cast<std::int64_t>(after.NumEdges()),
              static_cast<std::int64_t>(before.NumEdges()) + net);
    before = after;
  }
}

TEST(E2eMetrics, NamesAreWellFormedUniqueAndCarryUnits) {
  std::set<std::string> seen;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *list) {
      EXPECT_TRUE(ValidMetricName(m.name)) << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
      const std::string unit = m.unit;
      EXPECT_FALSE(unit.empty()) << m.name;
      EXPECT_LE(unit.size(), 16u) << m.name;
    }
  }
  EXPECT_FALSE(ValidMetricName("bad name"));
  EXPECT_FALSE(ValidMetricName(".leading_dot"));
  EXPECT_FALSE(ValidMetricName(""));
}

TEST(E2eLedger, WrongExpectedCountTripsTheCheck) {
  const Graph g = GenerateGraph(Workload::kServeUpdate, 5).graph;
  const std::uint64_t truth = CountOccurrences(g, MakeQuery(Workload::kServeUpdate));
  OpLedger good;
  EXPECT_TRUE(good.RecordCount(truth, truth));
  EXPECT_TRUE(good.correct());
  EXPECT_EQ(good.ok_frac(), 1.0);

  OpLedger bad;
  EXPECT_TRUE(bad.RecordCount(truth, truth));
  EXPECT_FALSE(bad.RecordCount(truth, truth + 1));
  EXPECT_FALSE(bad.correct());
  EXPECT_EQ(bad.failed(), 1u);
  EXPECT_EQ(bad.ok_frac(), 0.5);

  OpLedger check_only;
  EXPECT_TRUE(check_only.Record(true));
  check_only.FailCheck();
  EXPECT_FALSE(check_only.correct());
}

TEST(E2eMeasure, QuantilesAndHistogramQuantile) {
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({5}, 0.9), 5);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0);
  obs::MetricsSnapshot::HistogramValue h;
  h.buckets = {{8, 10}};  // ten values in [128, 256)
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 0.5), 192);
}

TEST(E2eMeasure, SpanSelfTimeAndChromeTrace) {
  SpanRecorder rec;
  const std::int64_t root = rec.Begin("query", 1, -1);
  const std::int64_t child = rec.Begin("runtime.run", 1, root);
  rec.End(child);
  rec.End(root);
  EXPECT_GE(rec.SelfMs(root), 0.0);
  const std::string json = rec.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"runtime.run\""), std::string::npos);
}

}  // namespace
}  // namespace dualsim::e2e
