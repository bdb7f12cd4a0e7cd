#ifndef DUALSIM_BENCHMARK_E2E_INPUTS_H_
#define DUALSIM_BENCHMARK_E2E_INPUTS_H_

/// Seeded inputs of the end-to-end benchmark: the three workloads, the
/// graph each one runs on, and the edge-update stream of serve_update.
/// Everything here is a pure function of (workload, seed), so a run can
/// be repeated exactly and the program under test only ever sees the
/// generated graph and deltas.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "incr/edge_delta_log.h"
#include "query/query_graph.h"
#include "util/random.h"

namespace dualsim::e2e {

enum class Workload {
  kScanCold,     // FR-shaped graph > buffer, fresh Runtime per q1
  kEnumHot,      // OK-shaped graph fully buffered, warmed q4
  kServeUpdate,  // LJ-shaped graph behind a QueryService, q1 + UPDATEs
};

const std::vector<Workload>& AllWorkloads();
const char* WorkloadName(Workload w);
std::optional<Workload> ParseWorkload(std::string_view name);

/// The workload's one query shape (q1 = triangle, q4 = 4-clique), in the
/// parser's text form (what the service client sends).
const char* QueryText(Workload w);
QueryGraph MakeQuery(Workload w);

/// Fraction of the database's pages the buffer pool holds.
double BufferFraction(Workload w);

/// R-MAT shape of one of graph/datasets.cc's stand-ins (FR, OK or LJ).
struct GraphShape {
  std::uint32_t vertices;
  std::uint32_t avg_degree;
  double skew;  // R-MAT `a`
};
GraphShape ShapeOf(Workload w);

/// Independent random stream per (seed, workload, purpose).
std::uint64_t DeriveSeed(std::uint64_t seed, Workload w,
                         std::uint64_t purpose);

struct GeneratedGraph {
  Graph graph;             // degree-reordered, ready for BuildDiskGraph
  double generate_s = 0;   // R-MAT + isolated-vertex drop
  double reorder_s = 0;    // ReorderByDegree
};

/// The generator graph/datasets.cc uses (R-MAT oversampled ~15%, isolated
/// vertices dropped, then ReorderByDegree), seeded from `seed`.
GeneratedGraph GenerateGraph(Workload w, std::uint64_t seed);

/// Smallest power-of-two page size (>= 4 KiB) that holds the largest
/// adjacency record in one page, the engine's small-degree precondition.
std::size_t PageSizeFor(const Graph& g);

/// Seeded presence-flipping edge batches over a mutable shadow copy of
/// the served graph: each delta removes an existing edge or adds a
/// missing one (half each), and no pair repeats within a batch, so every
/// delta of a batch is applied by the overlay. The shadow tracks the
/// composed view, which is the oracle's input for the final count.
class UpdateStream {
 public:
  UpdateStream(const Graph& base, std::uint64_t seed);

  /// Draws the next batch of `n` deltas and applies it to the shadow.
  std::vector<incr::EdgeDelta> NextBatch(std::size_t n);

  /// The shadow (base plus every batch drawn so far) as a CSR graph.
  Graph Shadow() const;

 private:
  bool Has(VertexId u, VertexId v) const;
  void Flip(VertexId u, VertexId v);

  std::vector<std::vector<VertexId>> adj_;
  Random rng_;
};

/// Attempted/failed operation ledger with the correctness verdict.
class OpLedger {
 public:
  /// Counts one operation; returns `ok`.
  bool Record(bool ok);
  /// Counts one operation that succeeded iff `got == expected`.
  bool RecordCount(std::uint64_t got, std::uint64_t expected);
  /// A whole-run check (not an operation) that failed.
  void FailCheck() { checks_failed_ = true; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const {
    return attempted_ > 0 && failed_ == 0 && !checks_failed_;
  }
  double ok_frac() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool checks_failed_ = false;
};

}  // namespace dualsim::e2e

#endif  // DUALSIM_BENCHMARK_E2E_INPUTS_H_
