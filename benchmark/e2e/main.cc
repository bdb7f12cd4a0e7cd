/// End-to-end benchmark of the DualSim engine (see ../NOTES.md).
///
///   dualsim_e2e --workload scan_cold|enum_hot|serve_update --seed N
///               --seconds S --trace 0|1 [--out-dir DIR] [--expect-offset K]
///
/// Sets up the workload's graph, runtime or service several times (the
/// median is setup_s), computes the oracle counts, then runs one
/// closed-loop client for S seconds: each request is sent only after the
/// previous reply. Every reply is checked against the oracle. The last
/// line of stdout is the result JSON: end-to-end metrics for --trace 0,
/// per-layer metrics for --trace 1 (a separate invocation, so tracing
/// never touches the end-to-end numbers). Exit code 0 when every check
/// passed, 1 when one failed, 2 on a usage or set-up error.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baseline/bruteforce.h"
#include "e2e/inputs.h"
#include "e2e/measure.h"
#include "runtime/query_session.h"
#include "runtime/runtime.h"
#include "service/client.h"
#include "service/query_service.h"
#include "storage/disk_graph.h"

namespace dualsim::e2e {
namespace {

// Thread budget: 2 enumeration threads plus the program's default I/O
// threads (2) stay within a 4-vCPU host; the service runs 1 worker.
constexpr int kEnumThreads = 2;
constexpr int kServiceWorkers = 1;
// Device model: page cache on, 1 ms injected per physical read. The
// injected wait is long next to the host's timer wake-up jitter, so
// modeled I/O, not the host, dominates scan_cold's latency.
constexpr std::uint32_t kReadLatencyUs = 1000;
// setup_s is the median of this many complete set-ups.
constexpr int kSetupRepeats = 5;
// serve_update: edge deltas per UPDATE.
constexpr std::size_t kDeltasPerUpdate = 8;
// glibc malloc arenas. With one arena per thread, which threads happened
// to allocate the overlay's and the service's memory moved serve_update's
// peak RSS by up to 10% between runs of one seed; two arenas keep it
// within 1%.
constexpr int kMallocArenas = 2;
// storage.pin_batch_ms: one cold window of this many pages, repeated.
constexpr std::size_t kPinBatchPages = 64;
constexpr int kPinBatchRepeats = 9;

struct Args {
  Workload workload = Workload::kScanCold;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::int64_t expect_offset = 0;  // added to every oracle count
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      auto w = ParseWorkload(value);
      if (!w) return false;
      args->workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
      continue;
    } else if (key == "--out-dir") {
      args->out_dir = value;
      continue;
    } else if (key == "--expect-offset") {
      args->expect_offset = std::strtoll(value.c_str(), &end, 10);
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && (argc % 2 == 1) && args->seconds > 0;
}

/// One generated, built and opened database.
struct Database {
  Graph graph;
  std::string path;
  std::size_t page_size = 0;
  std::unique_ptr<DiskGraph> disk;
};

/// Everything a run collects: per-operation samples, per-layer samples,
/// the ledger and the run-health record.
struct Collector {
  OpLedger ledger;
  std::vector<double> setup_s;
  std::vector<double> query_ms;         // timed queries (all)
  std::vector<double> query_ms_traced;  // --trace 1: traced half
  std::vector<double> query_ms_plain;   // --trace 1: untraced half
  std::vector<double> update_ms;
  std::vector<double> pages_per_query;
  std::map<std::string, std::vector<double>> samples;  // medians
  std::map<std::string, double> layer;                 // final values
  std::map<std::string, std::string> absent;           // name -> reason
  std::map<std::string, std::string> health;           // JSON values

  void Sample(const std::string& name, double v) { samples[name].push_back(v); }
  void Absent(const std::string& name, const std::string& reason) {
    layer[name] = 0;
    absent[name] = reason;
  }
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string Str(const std::string& s) { return "\"" + JsonEscape(s) + "\""; }

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return MillisBetween(a, b) / 1e3;
}

StatusOr<Database> PrepareDatabase(const Args& args, const std::string& dir,
                                   Collector* c) {
  Database db;
  GeneratedGraph gen = GenerateGraph(args.workload, args.seed);
  c->Sample("graph.generate_s", gen.generate_s);
  c->Sample("graph.reorder_s", gen.reorder_s);
  db.graph = std::move(gen.graph);
  db.path = dir + "/" + WorkloadName(args.workload) + ".db";
  db.page_size = PageSizeFor(db.graph);

  auto t0 = Clock::now();
  Status built = BuildDiskGraph(db.graph, db.path, db.page_size,
                                /*require_single_page=*/true);
  if (!built.ok()) return built;
  auto t1 = Clock::now();
  auto disk = DiskGraph::Open(db.path, /*bypass_os_cache=*/false);
  if (!disk.ok()) return disk.status();
  auto t2 = Clock::now();
  c->Sample("storage.build_s", SecondsBetween(t0, t1));
  c->Sample("storage.open_s", SecondsBetween(t1, t2));
  db.disk = std::move(*disk);
  return db;
}

RuntimeOptions MakeRuntimeOptions(Workload w) {
  RuntimeOptions options;
  options.buffer_fraction = BufferFraction(w);
  options.num_threads = kEnumThreads;
  options.read_latency_us = kReadLatencyUs;
  return options;
}

/// Per-operation trace plumbing for --trace 1: every other operation is
/// traced (spans + registry deltas), the rest run bare so the two halves
/// give trace.overhead_frac.
struct OpTrace {
  SpanRecorder* recorder = nullptr;  // null = untraced operation
  std::uint64_t request = 0;
  std::optional<obs::MetricsSnapshot> before;
  std::optional<obs::TraceContext> ctx;
  std::uint64_t ctx_epoch_us = 0;

  OpTrace(SpanRecorder* rec, std::uint64_t req) : recorder(rec), request(req) {
    if (recorder == nullptr) return;
    before = obs::Metrics().Snapshot();
    ctx_epoch_us = recorder->NowUs();
    ctx.emplace("op");
  }
  obs::TraceContext* context() { return ctx ? &*ctx : nullptr; }
  /// Imports the program's spans; returns the registry after the op.
  obs::MetricsSnapshot Finish() {
    recorder->Import(*ctx, ctx_epoch_us, request);
    return obs::Metrics().Snapshot();
  }
};

/// Records the engine-side counters of one QuerySession run.
void SampleEngineStats(const EngineStats& s, std::uint64_t expected,
                       Collector* c) {
  c->Sample("storage.physical_reads", static_cast<double>(s.io.physical_reads));
  c->Sample("storage.evictions", static_cast<double>(s.io.evictions));
  c->Sample("hits", static_cast<double>(s.io.logical_hits));
  c->Sample("plan.prepare_ms", s.prepare_millis);
  c->Sample("plan.cached", s.plan_cached ? 1.0 : 0.0);
  std::uint64_t windows = 0, degraded = 0;
  for (const LevelStats& l : s.level_stats) {
    windows += l.windows;
    degraded += l.degraded_windows;
  }
  c->Sample("core.windows", static_cast<double>(windows));
  c->Sample("core.degraded_windows", static_cast<double>(degraded));
  c->Sample("internal", static_cast<double>(s.internal_embeddings));
  c->Sample("embeddings", static_cast<double>(expected));
  c->health["io_backend"] = Str(s.io_backend);
  c->health["frames"] = std::to_string(s.num_frames);
}

/// Spans the program recorded for one traced operation.
void SampleProgramSpans(const SpanRecorder& rec, std::uint64_t request,
                        Collector* c) {
  for (const SpanRecorder::Span& s : rec.spans()) {
    if (s.request != request) continue;
    const double ms = static_cast<double>(s.end_us - s.start_us) / 1e3;
    if (std::string_view(s.name) == "session.admit") {
      c->Sample("runtime.admit_ms", ms);
    } else if (std::string_view(s.name) == "scheduler.execute") {
      c->Sample("core.execute_ms", ms);
    }
  }
}

/// One QuerySession::Run as a timed operation: the shared body of
/// scan_cold (fresh runtime each time) and enum_hot (shared runtime).
void TimedQuery(Runtime* shared, DiskGraph* disk, Workload w,
                const QueryGraph& q, std::uint64_t expected,
                SpanRecorder* rec, std::uint64_t request, Collector* c) {
  OpTrace trace(rec, request);
  SessionOptions so;
  so.trace = trace.context();

  StatusOr<EngineStats> result = Status::Internal("not run");
  double run_ms = 0, cpu_ms = 0, start_ms = 0;
  const auto t0 = Clock::now();
  {
    ScopedSpan root(rec, "query", request);
    std::unique_ptr<Runtime> fresh;
    Runtime* runtime = shared;
    if (runtime == nullptr) {
      ScopedSpan s(rec, "runtime.start", request, root.index());
      const auto a = Clock::now();
      fresh = std::make_unique<Runtime>(disk, MakeRuntimeOptions(w));
      start_ms = MillisBetween(a, Clock::now());
      runtime = fresh.get();
    }
    {
      ScopedSpan s(rec, "runtime.run", request, root.index());
      const double cpu0 = ProcessCpuMs();
      const auto a = Clock::now();
      result = QuerySession(runtime, so).Run(q);
      run_ms = MillisBetween(a, Clock::now());
      cpu_ms = ProcessCpuMs() - cpu0;
    }
    if (fresh != nullptr) {
      ScopedSpan s(rec, "runtime.stop", request, root.index());
      fresh.reset();
    }
  }
  const double ms = MillisBetween(t0, Clock::now());

  const bool ok = result.ok() && result->embeddings == expected;
  c->ledger.Record(ok);
  if (!result.ok()) {
    std::fprintf(stderr, "query %llu failed: %s\n",
                 static_cast<unsigned long long>(request),
                 result.status().ToString().c_str());
    return;
  }
  if (!ok) {
    std::fprintf(stderr, "query %llu: %llu embeddings, oracle %llu\n",
                 static_cast<unsigned long long>(request),
                 static_cast<unsigned long long>(result->embeddings),
                 static_cast<unsigned long long>(expected));
  }
  c->query_ms.push_back(ms);
  (rec != nullptr ? c->query_ms_traced : c->query_ms_plain).push_back(ms);
  c->pages_per_query.push_back(
      static_cast<double>(result->io.physical_reads + result->io.logical_hits));
  SampleEngineStats(*result, expected, c);
  if (shared == nullptr) c->Sample("runtime.start_ms", start_ms);
  c->Sample("core.cpu_ms", cpu_ms);
  c->Sample("run_ms", run_ms);
  if (rec != nullptr) {
    const obs::MetricsSnapshot after = trace.Finish();
    c->Sample("core.intersect_calls",
              static_cast<double>(
                  CounterDelta(*trace.before, after, "intersect.calls")));
    SampleProgramSpans(*rec, request, c);
  }
}

/// storage.pin_batch_ms: PinMany of one cold 64-page window on a fresh
/// pool, with the runtime's backend and device model.
void MeasurePinBatch(DiskGraph* disk, Workload w, Collector* c) {
  const std::size_t pages =
      std::min<std::size_t>(kPinBatchPages, disk->num_pages());
  std::vector<PageId> pids(pages);
  for (std::size_t i = 0; i < pages; ++i) pids[i] = static_cast<PageId>(i);
  std::vector<double> ms;
  for (int r = 0; r < kPinBatchRepeats; ++r) {
    RuntimeOptions options = MakeRuntimeOptions(w);
    options.num_frames = pages;
    Runtime runtime(disk, options);
    auto lease = runtime.Admit(pages, pages);
    if (!lease.ok()) {
      c->Absent("storage.pin_batch_ms", lease.status().ToString());
      return;
    }
    BufferPool* pool = lease->pool();
    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;
    bool failed = false;
    const auto t0 = Clock::now();
    pool->PinMany(pids, [&](std::size_t, Status s, const std::byte*) {
      std::lock_guard<std::mutex> lock(mu);
      failed |= !s.ok();
      if (++done == pages) cv.notify_all();
    });
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done == pages; });
    }
    ms.push_back(MillisBetween(t0, Clock::now()));
    for (PageId pid : pids) pool->Unpin(pid);
    if (failed) {
      c->Absent("storage.pin_batch_ms", "a PinMany read failed");
      return;
    }
  }
  c->layer["storage.pin_batch_ms"] = Median(ms);
}

/// The oracle count (in-memory backtracking), shifted by --expect-offset.
std::uint64_t Expected(const Graph& g, const QueryGraph& q, const Args& args) {
  return CountOccurrences(g, q) + static_cast<std::uint64_t>(args.expect_offset);
}

/// scan_cold and enum_hot.
Status RunEngineWorkload(const Args& args, const std::string& dir,
                         SpanRecorder* rec, Collector* c) {
  const Workload w = args.workload;
  const QueryGraph q = MakeQuery(w);
  const bool cold = w == Workload::kScanCold;
  Database db;
  std::unique_ptr<Runtime> shared;
  std::uint64_t warm_count = 0;
  for (int r = 0; r < kSetupRepeats; ++r) {
    shared.reset();
    db = Database{};
    const auto t0 = Clock::now();
    auto prepared = PrepareDatabase(args, dir, c);
    if (!prepared.ok()) return prepared.status();
    db = std::move(*prepared);
    // Warm-up: one query, which for enum_hot also fills the buffer and
    // the plan cache the timed queries then hit.
    const auto a = Clock::now();
    auto runtime =
        std::make_unique<Runtime>(db.disk.get(), MakeRuntimeOptions(w));
    const double start_ms = MillisBetween(a, Clock::now());
    auto warm = QuerySession(runtime.get()).Run(q);
    if (!warm.ok()) return warm.status();
    warm_count = warm->embeddings;
    if (cold) {
      runtime.reset();
    } else {
      c->Sample("runtime.start_ms", start_ms);
      shared = std::move(runtime);
    }
    c->setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }

  const std::uint64_t expected = Expected(db.graph, q, args);
  if (warm_count != expected) {
    std::fprintf(stderr, "warm-up query: %llu embeddings, oracle %llu\n",
                 static_cast<unsigned long long>(warm_count),
                 static_cast<unsigned long long>(expected));
    c->ledger.FailCheck();
  }
  c->health["pages"] = std::to_string(db.disk->num_pages());
  c->health["page_size"] = std::to_string(db.page_size);
  c->health["vertices"] = std::to_string(db.graph.NumVertices());
  c->health["edges"] = std::to_string(db.graph.NumEdges());
  c->health["oracle_count"] = std::to_string(expected);

  const obs::MetricsSnapshot loop_before = obs::Metrics().Snapshot();
  const HostCpu host_before = HostCpu::Read();
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds);
  for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
    SpanRecorder* op_rec = rec != nullptr && i % 2 == 0 ? rec : nullptr;
    TimedQuery(shared.get(), db.disk.get(), w, q, expected, op_rec, i, c);
  }
  const obs::MetricsSnapshot loop_after = obs::Metrics().Snapshot();
  c->layer["host.steal_frac"] = StealFrac(host_before, HostCpu::Read());
  c->layer["storage.read_us_p50"] = HistogramQuantile(
      HistogramDelta(loop_before, loop_after, "bufferpool.read_latency_us"),
      0.5);
  if (rec != nullptr) MeasurePinBatch(db.disk.get(), w, c);
  return Status::OK();
}

/// serve_update: one client alternating a one-shot SUBMIT and an UPDATE
/// (then draining its DELTA) against an in-process QueryService, while
/// holding one subscription to the same query.
Status RunServeWorkload(const Args& args, const std::string& dir,
                        SpanRecorder* rec, Collector* c) {
  const Workload w = args.workload;
  const QueryGraph q = MakeQuery(w);
  const std::uint64_t arity = q.NumVertices();
  Database db;
  std::unique_ptr<Runtime> runtime;
  std::unique_ptr<service::QueryService> svc;
  std::unique_ptr<service::QueryClient> client;
  std::uint64_t initial_count = 0, warm_count = 0;
  auto teardown = [&] {
    if (client != nullptr) client->Close();
    if (svc != nullptr) svc->Stop();
    client.reset();
    svc.reset();
    runtime.reset();
  };
  for (int r = 0; r < kSetupRepeats; ++r) {
    teardown();
    db = Database{};
    const auto t0 = Clock::now();
    auto prepared = PrepareDatabase(args, dir, c);
    if (!prepared.ok()) return prepared.status();
    db = std::move(*prepared);
    const auto a = Clock::now();
    runtime = std::make_unique<Runtime>(db.disk.get(), MakeRuntimeOptions(w));
    c->Sample("runtime.start_ms", MillisBetween(a, Clock::now()));
    service::ServiceOptions so;
    so.num_workers = kServiceWorkers;
    so.metrics_path = "";
    svc = std::make_unique<service::QueryService>(runtime.get(), so);
    if (Status s = svc->Start(); !s.ok()) return s;
    client = std::make_unique<service::QueryClient>();
    if (Status s = client->Connect("127.0.0.1", svc->port()); !s.ok()) {
      return s;
    }
    auto sub = client->Subscribe(QueryText(w));
    if (!sub.ok()) return sub.status();
    initial_count = sub->initial_count;
    auto warm = client->Run({QueryText(w)});
    if (!warm.ok()) return warm.status();
    warm_count = warm->embeddings;
    c->setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }

  const std::uint64_t expected = Expected(db.graph, q, args);
  if (initial_count != expected || warm_count != expected) {
    std::fprintf(stderr,
                 "set-up: subscription %llu, warm-up %llu, oracle %llu\n",
                 static_cast<unsigned long long>(initial_count),
                 static_cast<unsigned long long>(warm_count),
                 static_cast<unsigned long long>(expected));
    c->ledger.FailCheck();
  }
  c->health["pages"] = std::to_string(db.disk->num_pages());
  c->health["page_size"] = std::to_string(db.page_size);
  c->health["vertices"] = std::to_string(db.graph.NumVertices());
  c->health["edges"] = std::to_string(db.graph.NumEdges());
  c->health["oracle_count"] = std::to_string(expected);
  c->health["io_backend"] = Str(runtime->io_backend_name());
  c->health["frames"] = std::to_string(runtime->num_frames());
  c->health["service_workers"] = std::to_string(kServiceWorkers);

  UpdateStream stream(db.graph, DeriveSeed(args.seed, w, /*purpose=*/1));
  std::uint64_t live = initial_count;
  const obs::MetricsSnapshot loop_before = obs::Metrics().Snapshot();
  const HostCpu host_before = HostCpu::Read();
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds);
  std::uint64_t submits = 0, updates = 0;
  for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
    const bool is_submit = i % 2 == 0;
    // Trace every other operation of each kind.
    SpanRecorder* op_rec =
        rec != nullptr && (is_submit ? submits : updates) % 2 == 0 ? rec
                                                                    : nullptr;
    if (is_submit) {
      ++submits;
      OpTrace trace(op_rec, i);
      const double cpu0 = ProcessCpuMs();
      const auto t0 = Clock::now();
      StatusOr<service::ClientResult> res = Status::Internal("not run");
      {
        ScopedSpan root(op_rec, "submit", i);
        ScopedSpan s(op_rec, "client.run", i, root.index());
        res = client->Run({QueryText(w)});
      }
      const double ms = MillisBetween(t0, Clock::now());
      const double cpu_ms = ProcessCpuMs() - cpu0;
      const bool ok = res.ok() && res->code == service::WireCode::kOk &&
                      res->embeddings == expected;
      c->ledger.Record(ok);
      if (!ok) {
        std::fprintf(stderr, "submit %llu: %s\n",
                     static_cast<unsigned long long>(i),
                     res.ok() ? ("count " + std::to_string(res->embeddings) +
                                 " (" + res->message + ")")
                                    .c_str()
                              : res.status().ToString().c_str());
      }
      if (!res.ok()) continue;
      c->query_ms.push_back(ms);
      (op_rec != nullptr ? c->query_ms_traced : c->query_ms_plain)
          .push_back(ms);
      c->pages_per_query.push_back(
          static_cast<double>(res->physical_reads + res->logical_hits));
      c->Sample("storage.physical_reads",
                static_cast<double>(res->physical_reads));
      c->Sample("hits", static_cast<double>(res->logical_hits));
      c->Sample("plan.cached", res->plan_cached ? 1.0 : 0.0);
      c->Sample("service.overhead_ms",
                ms - static_cast<double>(res->elapsed_us) / 1e3);
      c->Sample("core.cpu_ms", cpu_ms);
      c->Sample("run_ms", static_cast<double>(res->elapsed_us) / 1e3);
      if (op_rec != nullptr) {
        const obs::MetricsSnapshot after = trace.Finish();
        const obs::MetricsSnapshot& before = *trace.before;
        c->Sample("storage.evictions",
                  static_cast<double>(
                      CounterDelta(before, after, "bufferpool.evictions")));
        c->Sample("core.windows",
                  static_cast<double>(
                      CounterDelta(before, after, "scheduler.windows")));
        c->Sample("core.degraded_windows",
                  static_cast<double>(CounterDelta(
                      before, after, "scheduler.windows_degraded")));
        const auto intersect = CounterDelta(before, after, "intersect.calls");
        c->Sample("core.intersect_calls", static_cast<double>(intersect));
        c->Sample("internal",
                  static_cast<double>(CounterDelta(
                      before, after, "match.embeddings_internal")));
        c->Sample("embeddings", static_cast<double>(expected));
        const auto run = HistogramDelta(before, after, "session.run_millis");
        if (run.count > 0) {
          c->Sample("core.execute_ms", static_cast<double>(run.sum) /
                                           static_cast<double>(run.count));
        }
      }
    } else {
      ++updates;
      const std::vector<incr::EdgeDelta> batch =
          stream.NextBatch(kDeltasPerUpdate);
      const auto t0 = Clock::now();
      StatusOr<service::UpdateAck> ack = Status::Internal("not run");
      StatusOr<service::SubscriptionEvent> event = Status::Internal("not run");
      {
        ScopedSpan root(op_rec, "update", i);
        {
          ScopedSpan s(op_rec, "client.update", i, root.index());
          ack = client->Update(batch);
        }
        if (ack.ok()) {
          ScopedSpan s(op_rec, "client.drain_delta", i, root.index());
          event = client->NextEvent();
        }
      }
      const double ms = MillisBetween(t0, Clock::now());
      const bool ok = ack.ok() && ack->applied == batch.size() &&
                      event.ok() && !event->ended &&
                      event->sequence == ack->sequence &&
                      event->arity == arity;
      c->ledger.Record(ok);
      if (!ok) {
        std::fprintf(stderr, "update %llu failed: %s\n",
                     static_cast<unsigned long long>(i),
                     !ack.ok()     ? ack.status().ToString().c_str()
                     : !event.ok() ? event.status().ToString().c_str()
                                   : "unexpected ack or delta");
        if (!ack.ok() || !event.ok()) break;  // the stream is out of step
        continue;
      }
      live += event->added.size() / arity;
      live -= event->retracted.size() / arity;
      c->update_ms.push_back(ms);
      c->Sample("incr.windows_rerun", static_cast<double>(ack->windows_rerun));
      c->Sample("rerun", static_cast<double>(ack->windows_rerun));
      c->Sample("skipped", static_cast<double>(ack->windows_skipped));
      c->Sample("incr.pages_reread", static_cast<double>(ack->pages_read));
      c->Sample("incr.dirty_pages", static_cast<double>(ack->dirty_pages));
      c->Sample("incr.diff_size",
                static_cast<double>((event->added.size() +
                                     event->retracted.size()) /
                                    arity));
    }
  }
  const obs::MetricsSnapshot loop_after = obs::Metrics().Snapshot();
  c->layer["host.steal_frac"] = StealFrac(host_before, HostCpu::Read());
  c->layer["storage.read_us_p50"] = HistogramQuantile(
      HistogramDelta(loop_before, loop_after, "bufferpool.read_latency_us"),
      0.5);
  const auto queue = HistogramDelta(loop_before, loop_after,
                                    "service.queue_wait_us");
  c->layer["service.queue_wait_ms"] =
      queue.count == 0 ? 0.0
                       : static_cast<double>(queue.sum) /
                             static_cast<double>(queue.count) / 1e3;
  const std::uint64_t admissions =
      CounterDelta(loop_before, loop_after, "runtime.admissions");
  const auto waits =
      HistogramDelta(loop_before, loop_after, "runtime.admission_wait_us");
  // The registry records a wait only when admission blocked; no samples
  // means every admission was immediate.
  c->layer["runtime.admit_ms"] =
      admissions == 0 ? 0.0
                      : static_cast<double>(waits.sum) /
                            static_cast<double>(admissions) / 1e3;
  teardown();

  // Final subscription count against the oracle on the shadow graph that
  // received the same edits.
  const std::uint64_t final_expected = Expected(stream.Shadow(), q, args);
  if (!c->ledger.RecordCount(live, final_expected)) {
    std::fprintf(stderr, "subscription count %llu, oracle %llu\n",
                 static_cast<unsigned long long>(live),
                 static_cast<unsigned long long>(final_expected));
  }
  c->health["final_count"] = std::to_string(live);
  if (rec != nullptr) MeasurePinBatch(db.disk.get(), w, c);
  return Status::OK();
}


double SampleMedian(const Collector& c, const std::string& name) {
  auto it = c.samples.find(name);
  return it == c.samples.end() ? 0.0 : Median(it->second);
}

double SampleSum(const Collector& c, const std::string& name) {
  auto it = c.samples.find(name);
  if (it == c.samples.end()) return 0.0;
  double total = 0;
  for (double v : it->second) total += v;
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Derives the per-layer values from the collected samples.
void FinishLayers(const Args& args, const SpanRecorder& rec, Collector* c) {
  const Workload w = args.workload;
  for (const char* name :
       {"graph.generate_s", "graph.reorder_s", "storage.build_s",
        "storage.open_s", "storage.physical_reads", "storage.evictions",
        "runtime.start_ms", "core.cpu_ms", "core.windows",
        "core.degraded_windows", "core.intersect_calls", "core.execute_ms",
        "service.overhead_ms", "incr.windows_rerun", "incr.pages_reread",
        "incr.dirty_pages", "incr.diff_size"}) {
    c->layer[name] = SampleMedian(*c, name);
  }
  if (w != Workload::kServeUpdate) {
    c->layer["plan.prepare_ms"] = SampleMedian(*c, "plan.prepare_ms");
    c->layer["runtime.admit_ms"] = SampleMedian(*c, "runtime.admit_ms");
  } else {
    c->Absent("plan.prepare_ms",
              "the service reports no per-request prepare time and its "
              "sessions take no trace context");
  }
  const double hits = SampleSum(*c, "hits");
  c->layer["storage.hit_rate"] =
      Ratio(hits, hits + SampleSum(*c, "storage.physical_reads"));
  c->layer["plan.cache_hit_rate"] = Ratio(
      SampleSum(*c, "plan.cached"),
      static_cast<double>(c->samples["plan.cached"].size()));
  c->layer["core.busy_frac"] =
      Ratio(SampleSum(*c, "core.cpu_ms"), kEnumThreads * SampleSum(*c, "run_ms"));
  c->layer["core.internal_frac"] =
      Ratio(SampleSum(*c, "internal"), SampleSum(*c, "embeddings"));
  // Per traced query, since intersect calls are sampled on those only.
  c->layer["core.intersect_per_embedding"] =
      Ratio(SampleMedian(*c, "core.intersect_calls"),
            SampleMedian(*c, "embeddings"));
  if (w == Workload::kServeUpdate) {
    c->layer["incr.update_ack_p50_ms"] = Quantile(c->update_ms, 0.5);
    c->layer["incr.update_ack_p90_ms"] = Quantile(c->update_ms, 0.9);
    const double rerun = SampleSum(*c, "rerun");
    c->layer["incr.rerun_frac"] =
        Ratio(rerun, rerun + SampleSum(*c, "skipped"));
  } else {
    const std::string why = "no updates on this workload (serve_update only)";
    for (const char* name :
         {"incr.update_ack_p50_ms", "incr.update_ack_p90_ms",
          "incr.windows_rerun", "incr.rerun_frac", "incr.pages_reread",
          "incr.dirty_pages", "incr.diff_size"}) {
      c->Absent(name, why);
    }
    c->Absent("service.queue_wait_ms", "no service on this workload");
    c->Absent("service.overhead_ms", "no service on this workload");
  }
  // The tail from the untraced half; too noisy on a shared host to gate.
  c->layer["client.query_p90_ms"] = Quantile(c->query_ms_plain, 0.9);
  c->layer["trace.overhead_frac"] =
      Ratio(Median(c->query_ms_traced), Median(c->query_ms_plain)) - 1.0;

  // How much of each traced root span its direct children account for.
  std::vector<double> accounted;
  std::int64_t median_root = -1;
  std::vector<std::pair<double, std::int64_t>> roots;
  const auto& spans = rec.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != -1) continue;
    const double ms =
        static_cast<double>(spans[i].end_us - spans[i].start_us) / 1e3;
    if (ms <= 0) continue;
    accounted.push_back(1.0 - rec.SelfMs(static_cast<std::int64_t>(i)) / ms);
    if (std::string_view(spans[i].name) != "update") {
      roots.emplace_back(ms, static_cast<std::int64_t>(i));
    }
  }
  c->layer["trace.accounted_frac"] = Median(accounted);
  if (!roots.empty()) {
    std::sort(roots.begin(), roots.end());
    median_root = roots[roots.size() / 2].second;
    // Print the median traced query's time split by span self time.
    const auto& root = spans[static_cast<std::size_t>(median_root)];
    std::printf("median traced %s (request %llu): %.3f ms wall\n", root.name,
                static_cast<unsigned long long>(root.request),
                static_cast<double>(root.end_us - root.start_us) / 1e3);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].request != root.request) continue;
      int depth = 0;
      for (std::int64_t p = spans[i].parent; p >= 0;
           p = spans[static_cast<std::size_t>(p)].parent) {
        ++depth;
      }
      std::printf("  %*s%-20s %9.3f ms total %9.3f ms self\n", 2 * depth, "",
                  spans[i].name,
                  static_cast<double>(spans[i].end_us - spans[i].start_us) /
                      1e3,
                  rec.SelfMs(static_cast<std::int64_t>(i)));
    }
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dualsim_e2e --workload scan_cold|enum_hot|"
                 "serve_update --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR] [--expect-offset K]\n");
    return 2;
  }
  // Before any thread starts, so that every thread shares the arenas.
  ::mallopt(M_ARENA_MAX, kMallocArenas);
  // The service would otherwise flush a metrics file wherever this
  // variable points.
  ::unsetenv("DUALSIM_METRICS_OUT");

  const std::string tag = std::string(WorkloadName(args.workload)) + "-seed" +
                          std::to_string(args.seed);
  const std::filesystem::path work =
      std::filesystem::path(args.out_dir) /
      ("work-" + std::to_string(::getpid()));
  std::filesystem::create_directories(work);

  SpanRecorder recorder;
  Collector c;
  SpanRecorder* rec = args.trace ? &recorder : nullptr;
  const Status status = args.workload == Workload::kServeUpdate
                            ? RunServeWorkload(args, work.string(), rec, &c)
                            : RunEngineWorkload(args, work.string(), rec, &c);
  std::error_code ec;
  std::filesystem::remove_all(work, ec);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", tag.c_str(), status.ToString().c_str());
    return 2;
  }

  c.health["workload"] = Str(WorkloadName(args.workload));
  c.health["seed"] = std::to_string(args.seed);
  c.health["trace"] = args.trace ? "1" : "0";
  c.health["nproc"] = std::to_string(std::thread::hardware_concurrency());
  c.health["enum_threads"] = std::to_string(kEnumThreads);
  c.health["io_threads"] = std::to_string(RuntimeOptions{}.io_threads);
  c.health["read_latency_us"] = std::to_string(kReadLatencyUs);
  c.health["malloc_arenas"] = std::to_string(kMallocArenas);
  c.health["queries"] = std::to_string(c.query_ms.size());
  c.health["updates"] = std::to_string(c.update_ms.size());
  c.health["host.steal_frac"] = Num(c.layer["host.steal_frac"]);
  c.health["query_p90_ms"] = Num(Quantile(c.query_ms, 0.9));
  if (!c.update_ms.empty()) {
    // serve_update's update acks, shown next to the end-to-end metrics.
    c.health["update_ack_p50_ms"] = Num(Quantile(c.update_ms, 0.5));
    c.health["update_ack_p90_ms"] = Num(Quantile(c.update_ms, 0.9));
  }
  std::string health = "{\"run_health\": {";
  bool first = true;
  for (const auto& [key, value] : c.health) {
    health += (first ? "\"" : ", \"") + key + "\": " + value;
    first = false;
  }
  std::printf("%s}}\n", health.c_str());

  std::map<std::string, double> values;
  const std::vector<MetricSpec>* specs = &EndToEndMetrics();
  if (args.trace) {
    FinishLayers(args, recorder, &c);
    values = c.layer;
    specs = &PerLayerMetrics();
    const std::string trace_path =
        (std::filesystem::path(args.out_dir) / (tag + ".trace.json")).string();
    std::ofstream(trace_path) << recorder.ToChromeTraceJson();
    std::string absent = "{\"absent\": {";
    first = true;
    for (const auto& [name, reason] : c.absent) {
      absent += (first ? "" : ", ") + Str(name) + ": " + Str(reason);
      first = false;
    }
    std::printf("%s}, \"chrome_trace\": %s}\n", absent.c_str(),
                Str(trace_path).c_str());
  } else {
    values["setup_s"] = Median(c.setup_s);
    values["query_p50_ms"] = Quantile(c.query_ms, 0.5);
    values["pages_per_query"] = Median(c.pages_per_query);
    values["peak_rss_mb"] = PeakRssMb();
    values["ok_frac"] = c.ledger.ok_frac();
  }
  std::printf("%s\n", ResultJson(c.ledger.correct(), c.ledger.attempted(),
                                 c.ledger.failed(), *specs, values)
                          .c_str());
  std::fflush(stdout);
  return c.ledger.correct() ? 0 : 1;
}

}  // namespace
}  // namespace dualsim::e2e

int main(int argc, char** argv) { return dualsim::e2e::Main(argc, argv); }
