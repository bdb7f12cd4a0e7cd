#include "e2e/inputs.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "query/queries.h"
#include "util/logging.h"

namespace dualsim::e2e {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> all = {
      Workload::kScanCold, Workload::kEnumHot, Workload::kServeUpdate};
  return all;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kScanCold:
      return "scan_cold";
    case Workload::kEnumHot:
      return "enum_hot";
    case Workload::kServeUpdate:
      return "serve_update";
  }
  return "?";
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : AllWorkloads()) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

const char* QueryText(Workload w) {
  return w == Workload::kEnumHot ? "q4" : "triangle";
}

QueryGraph MakeQuery(Workload w) {
  return MakePaperQuery(w == Workload::kEnumHot ? PaperQuery::kQ4
                                                : PaperQuery::kQ1);
}

double BufferFraction(Workload w) {
  switch (w) {
    case Workload::kScanCold:
      return 0.15;
    case Workload::kEnumHot:
    case Workload::kServeUpdate:
      return 1.0;
  }
  return 0.15;
}

GraphShape ShapeOf(Workload w) {
  // Same |V|, degree and skew as the FR / OK / LJ rows of graph/datasets.cc.
  switch (w) {
    case Workload::kScanCold:
      return {25000, 12, 0.53};
    case Workload::kEnumHot:
      return {6000, 24, 0.52};
    case Workload::kServeUpdate:
      return {10000, 12, 0.53};
  }
  return {25000, 12, 0.53};
}

std::uint64_t DeriveSeed(std::uint64_t seed, Workload w,
                         std::uint64_t purpose) {
  Random mix(seed * 0x100000001B3ULL + static_cast<std::uint64_t>(w) * 131 +
             purpose);
  return mix.Next();
}

GeneratedGraph GenerateGraph(Workload w, std::uint64_t seed) {
  const GraphShape shape = ShapeOf(w);
  const std::uint64_t target_edges =
      static_cast<std::uint64_t>(shape.vertices) * shape.avg_degree / 2;
  std::uint32_t rmat_scale = 1;
  while ((1u << rmat_scale) < shape.vertices) ++rmat_scale;
  const double rest = (1.0 - shape.skew) / 3.0;

  GeneratedGraph out;
  auto start = std::chrono::steady_clock::now();
  Graph g = RMat(rmat_scale, target_edges + target_edges / 7, shape.skew,
                 rest, rest, DeriveSeed(seed, w, /*purpose=*/0));
  std::vector<VertexId> keep;
  keep.reserve(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.Degree(v) > 0) keep.push_back(v);
  }
  Graph trimmed = InducedSubgraph(g, keep);
  out.generate_s = SecondsSince(start);

  start = std::chrono::steady_clock::now();
  out.graph = ReorderByDegree(trimmed);
  out.reorder_s = SecondsSince(start);
  return out;
}

std::size_t PageSizeFor(const Graph& g) {
  const std::size_t need = static_cast<std::size_t>(g.MaxDegree()) * 4 + 64;
  std::size_t page = 4096;
  while (page < need) page *= 2;
  return page;
}

UpdateStream::UpdateStream(const Graph& base, std::uint64_t seed)
    : adj_(base.NumVertices()), rng_(seed) {
  for (VertexId v = 0; v < base.NumVertices(); ++v) {
    const auto n = base.Neighbors(v);
    adj_[v].assign(n.begin(), n.end());
  }
}

bool UpdateStream::Has(VertexId u, VertexId v) const {
  return std::binary_search(adj_[u].begin(), adj_[u].end(), v);
}

void UpdateStream::Flip(VertexId u, VertexId v) {
  for (const auto& [x, y] : {std::pair{u, v}, std::pair{v, u}}) {
    auto& list = adj_[x];
    auto it = std::lower_bound(list.begin(), list.end(), y);
    if (it != list.end() && *it == y) {
      list.erase(it);
    } else {
      list.insert(it, y);
    }
  }
}

std::vector<incr::EdgeDelta> UpdateStream::NextBatch(std::size_t n) {
  const auto num_vertices = static_cast<std::uint64_t>(adj_.size());
  DS_CHECK_GT(num_vertices, 1u);
  std::vector<incr::EdgeDelta> batch;
  std::vector<std::pair<VertexId, VertexId>> used;
  while (batch.size() < n) {
    VertexId u = static_cast<VertexId>(rng_.Uniform(num_vertices));
    VertexId v = 0;
    incr::DeltaOp op = incr::DeltaOp::kAddEdge;
    if (rng_.Bernoulli(0.5) && !adj_[u].empty()) {
      op = incr::DeltaOp::kRemoveEdge;
      v = adj_[u][rng_.Uniform(adj_[u].size())];
    } else {
      v = static_cast<VertexId>(rng_.Uniform(num_vertices));
      if (u == v || Has(u, v)) continue;
    }
    const std::pair<VertexId, VertexId> pair{std::min(u, v), std::max(u, v)};
    if (std::find(used.begin(), used.end(), pair) != used.end()) continue;
    used.push_back(pair);
    batch.push_back({op, pair.first, pair.second});
  }
  for (const incr::EdgeDelta& d : batch) Flip(d.u, d.v);
  return batch;
}

Graph UpdateStream::Shadow() const {
  GraphBuilder builder(static_cast<std::uint32_t>(adj_.size()));
  for (VertexId u = 0; u < adj_.size(); ++u) {
    for (VertexId v : adj_[u]) {
      if (u < v) builder.AddEdge(u, v);
    }
  }
  return builder.Build();
}

bool OpLedger::Record(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
  return ok;
}

bool OpLedger::RecordCount(std::uint64_t got, std::uint64_t expected) {
  return Record(got == expected);
}

double OpLedger::ok_frac() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(attempted_ - failed_) /
                               static_cast<double>(attempted_);
}

}  // namespace dualsim::e2e
