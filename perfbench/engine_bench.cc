// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// engine_bench: runs one workload of the engine benchmark against the
// public engine::Client surface and prints its metrics (README.md has the
// workloads, metrics and the layer -> end-to-end table).
//
//   engine_bench --workload zipf_hot --seed 7 --seconds 10 --trace 0
//
// A run has four phases: setup (Client::Create, handle resolution and one
// warm-up batch, repeated kSetupReps times, median reported), saturate
// (closed-loop producer, then Flush), serve (open-loop producer at the
// workload's offered rate beside a closed-loop query thread) and verify
// (the correctness gate). Inputs are generated from --seed before any of it.
//
// --trace 0 prints the end-to-end metrics. --trace 1 is a separate run that
// keeps spans around every call into a layer, writes them to --trace-out,
// and prints the per-layer metrics derived from them and from single-layer
// probes. The last stdout line is the result object; the line before it
// states the sample count behind each timing. Exit status 0 only when every
// operation succeeded and the gate passed.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/client.h"
#include "layer_probes.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using wbs::Status;
using wbs::engine::Client;
using wbs::engine::IngestTicket;
using wbs::engine::SketchHandle;
using wbs::engine::SketchSummary;

constexpr size_t kPoolBatches = 512;  // 2M updates, replayed cyclically
constexpr int kSetupReps = 21;
// Saturate throughput is read over short windows once the in-flight valve
// has filled. The host the benchmark was tuned on alternates, for a tenth
// of a second to minutes at a time, between its full speed and 0.5-0.7 of
// it (other tenants), so a whole-phase mean follows the host; the 90th
// percentile of 100 ms windows is the rate the engine sustains when the
// host does not slow it, with at least ten windows above it in a 30 s run
// (README.md).
constexpr double kSaturateWarmupS = 0.5;
constexpr double kWindowS = 0.1;
constexpr double kWindowQuantile = 0.9;
// Serve-phase query latency is read the same way, from the other side: the
// median of each kWindowS window, and the 10th percentile of those medians.
constexpr double kQueryWindowQuantile = 0.1;
constexpr size_t kWindowQuerySamples = 4096;
constexpr size_t kTopK = 16;
constexpr double kCooldownS = 0.1;    // on-schedule batches after the window
constexpr size_t kQuerySamples = size_t{1} << 20;
constexpr size_t kQuerySpanSamples = 200000;
constexpr int kCheckpointProbes = 9;
// A serve phase whose generator fell behind its schedule is invalid: it sent
// under 99% of the window's batches in the window, or more than 1% of them
// over 20 ms late (a stall, not wake-up jitter; jitter is charged to the
// visibility lag, which runs from the due time).
constexpr double kMaxLateP99Us = 20000;
constexpr double kMinAchievedOverOffered = 0.99;
constexpr int kServeAttempts = 3;

// Trace-id namespaces: batches use their stream batch index.
constexpr uint64_t kQueryTraceBase = uint64_t{1} << 62;
constexpr uint64_t kControlTraceBase = uint64_t{1} << 61;

void SleepUntilNs(int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (key == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

/// Every operation the run attempts: submits, queries, flushes,
/// checkpoints and gate checks. Counted from any thread.
struct Ops {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};

  /// Counts one operation; logs the first few failures to stderr.
  bool Count(const Status& s, const char* what) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (s.ok()) return true;
    if (failed.fetch_add(1, std::memory_order_relaxed) < 10) {
      std::fprintf(stderr, "engine_bench: FAILED %s: %s\n", what,
                   s.ToString().c_str());
    }
    return false;
  }
  bool Count(bool ok, const char* what) {
    return Count(ok ? Status::OK() : Status::Internal("wrong answer"), what);
  }
};

struct Engine {
  std::unique_ptr<Client> client;
  std::vector<SketchHandle> query_handles;  ///< one per Workload::queries
  uint64_t next_batch = 1;  ///< stream batches submitted; 0 was the warm-up
};

wbs::Result<Engine> SetUp(const Workload& w, const Stream& stream) {
  auto client = Client::Create(ClientOptionsFor(w));
  if (!client.ok()) return client.status();
  Engine e;
  e.client = std::move(client).value();
  for (const QuerySpec& q : w.queries) {
    auto h = e.client->Handle(q.sketch);
    if (!h.ok()) return h.status();
    e.query_handles.push_back(h.value());
  }
  // The warm-up batch forces lazy set-up (sis_l0 matrix materialisation,
  // tcp dial + hello) into the set-up time.
  auto t = e.client->Submit(stream.Batch(0), kBatchUpdates);
  if (!t.ok()) return t.status();
  if (Status s = e.client->Flush(); !s.ok()) return s;
  return e;
}

struct QueryOutcome {
  Status status;
  uint64_t updates = 0;  ///< effective updates the answer covers
};

QueryOutcome RunQuery(const Client& c, const QuerySpec& q,
                      const SketchHandle& h, uint64_t item) {
  switch (q.kind) {
    case QueryKind::kPoint: {
      auto r = c.QueryPoint(h, item);
      return {r.status(), r.ok() ? r.value().updates : 0};
    }
    case QueryKind::kTopK: {
      auto r = c.QueryTopK(h, kTopK);
      return {r.status(), r.ok() ? r.value().updates : 0};
    }
    case QueryKind::kScalar: {
      auto r = c.QueryScalar(h);
      return {r.status(), r.ok() ? r.value().updates : 0};
    }
    case QueryKind::kRank: {
      auto r = c.QueryRank(h);
      return {r.status(), r.ok() ? r.value().updates : 0};
    }
  }
  return {Status::Internal("unknown query kind"), 0};
}

/// One sampled query of the traced serve phase.
struct QuerySpan {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  size_t spec = 0;  ///< index into Workload::queries
  uint64_t seq = 0;
};

struct ServeResult {
  double window_s = 0;
  std::vector<uint64_t> visible_ns;  ///< due -> query-visible, window batches
  std::vector<uint64_t> late_ns;     ///< due -> Submit call, window batches
  double achieved_over_offered = 0;
  Reservoir<uint64_t> query_ns{kQuerySamples};
  std::vector<double> window_query_p50_ns;  ///< one per kWindowS window
  uint64_t queries_in_window = 0;
  // Traced run only.
  std::vector<uint64_t> submit_ns;   ///< time inside Client::Submit
  std::vector<uint64_t> ticket_ns;   ///< due -> TryWait true
  std::vector<uint64_t> publish_ns;  ///< TryWait true -> query-visible
  Reservoir<QuerySpan> query_spans{kQuerySpanSamples};
};

/// Everything one run accumulates.
struct Run {
  Run(const Workload& workload, const Stream& input)
      : w(workload), stream(input) {}

  const Workload& w;
  const Stream& stream;
  Ops ops;
  Trace trace;
  std::map<std::string, double> metrics;
  std::map<std::string, uint64_t> samples;
};

/// Closed loop: submit as fast as Submit returns for `seconds`, then Flush.
/// Once the in-flight valve has filled (kSaturateWarmupS), the phase is cut
/// into kWindowS windows; in a closed loop each window's submit rate is the
/// rate at which the engine retired batches. Returns the kWindowQuantile
/// window rate in millions of updates per second.
double Saturate(Run& r, Engine& e, double seconds, bool traced) {
  Client& c = *e.client;
  const uint64_t first = e.next_batch;
  std::vector<std::pair<int64_t, int64_t>> submits;
  std::vector<double> rates;
  const int64_t t0 = NowNs();
  const int64_t stop = t0 + int64_t(seconds * 1e9);
  const int64_t window_ns = int64_t(kWindowS * 1e9);
  int64_t now = t0;
  int64_t window_start = t0 + int64_t(kSaturateWarmupS * 1e9);
  uint64_t window_first = 0;  // batch index at window_start, once reached
  while (now < stop) {
    auto t = c.Submit(r.stream.Batch(e.next_batch), kBatchUpdates);
    const int64_t after = NowNs();
    if (traced) submits.emplace_back(now, after);
    r.ops.Count(t.status(), "saturate submit");
    ++e.next_batch;
    now = after;
    if (now < window_start) continue;
    if (window_first == 0) {
      window_first = e.next_batch;
      window_start = now;
    } else if (now - window_start >= window_ns) {
      rates.push_back(double((e.next_batch - window_first) * kBatchUpdates) /
                      (double(now - window_start) / 1e9) / 1e6);
      window_first = e.next_batch;
      window_start = now;
    }
  }
  const int64_t f0 = NowNs();
  r.ops.Count(c.Flush(), "saturate flush");
  const int64_t t1 = NowNs();
  if (traced) {
    const int64_t root =
        r.trace.Add("bench.saturate", kControlTraceBase, -1, t0, t1);
    for (size_t i = 0; i < submits.size(); ++i) {
      r.trace.Add("client.submit", first + i, root, submits[i].first,
                  submits[i].second);
    }
    r.trace.Add("sharded_ingestor.flush", kControlTraceBase, root, f0, t1);
    r.metrics["sharded_ingestor.flush_ms"] = double(t1 - f0) / 1e6;
  }
  if (rates.empty()) {  // a phase too short for one window: whole-phase rate
    rates.push_back(double((e.next_batch - first) * kBatchUpdates) /
                    (double(t1 - t0) / 1e9) / 1e6);
  }
  r.samples["ingest_windows"] += rates.size();
  return Quantile(rates, kWindowQuantile);
}

/// Open loop at the workload's offered rate for `seconds`, with one
/// closed-loop query thread (and, if configured, a checkpoint thread).
/// Each batch is timed from its due time, so a stalled producer shows as
/// lateness, not as a shorter lag.
ServeResult Serve(Run& r, Engine& e, double seconds, bool traced) {
  Client& c = *e.client;
  const Workload& w = r.w;
  const double interval_ns = double(kBatchUpdates) / w.serve_rate_ups * 1e9;
  const size_t n_window = std::max<size_t>(1, size_t(seconds * 1e9 / interval_ns));
  const size_t n_total =
      n_window + std::max<size_t>(32, size_t(kCooldownS * 1e9 / interval_ns));
  const uint64_t first = e.next_batch;
  // Everything before the serve phase is flushed, so batch i of the phase
  // is visible once an answer covers (first + i + 1) batches of updates.
  const uint64_t base_updates = first * kBatchUpdates;

  std::vector<int64_t> due(n_total), sent_at(n_total), submit_end(n_total);
  std::vector<int64_t> visible(n_total, -1), done(n_total, -1);
  std::vector<std::atomic<uint64_t>> ticket_seq(n_total);
  std::atomic<size_t> submitted{0};
  std::atomic<bool> producer_done{false};

  ServeResult out;
  const int64_t t_start = NowNs() + 2'000'000;
  const int64_t t_window_end = t_start + int64_t(double(n_window) * interval_ns);
  out.window_s = double(t_window_end - t_start) / 1e9;

  std::thread querier([&] {
    const size_t nq = w.queries.size();
    const int64_t deadline = t_window_end + 30'000'000'000LL;
    size_t next_visible = 0;
    size_t next_done = 0;
    const int64_t window_ns = int64_t(kWindowS * 1e9);
    int64_t window_end = t_start + window_ns;
    Reservoir<uint64_t> window_q(kWindowQuerySamples);
    for (uint64_t qi = 0;; ++qi) {
      if (producer_done.load(std::memory_order_acquire) &&
          next_visible >= n_total) {
        break;
      }
      if (NowNs() > deadline) {
        r.ops.Count(false, "serve: batches never became query-visible");
        break;
      }
      const size_t spec = size_t(qi % nq);
      const uint64_t item =
          r.stream.pool[size_t((qi * 7919) % r.stream.pool.size())].item;
      const int64_t a = NowNs();
      QueryOutcome q = RunQuery(c, w.queries[spec], e.query_handles[spec],
                                item);
      const int64_t b = NowNs();
      r.ops.Count(q.status, "serve query");
      if (a >= t_start && a < t_window_end) {
        out.query_ns.Add(uint64_t(b - a));
        ++out.queries_in_window;
        if (a >= window_end) {
          if (!window_q.values().empty()) {
            out.window_query_p50_ns.push_back(
                QuantileNs(window_q.values(), 0.5));
          }
          window_q = Reservoir<uint64_t>(kWindowQuerySamples);
          window_end += (a - window_end) / window_ns * window_ns + window_ns;
        }
        window_q.Add(uint64_t(b - a));
        if (traced) out.query_spans.Add({a, b, spec, qi});
      }
      if (q.status.ok()) {
        while (next_visible < n_total &&
               q.updates >= base_updates + (next_visible + 1) * kBatchUpdates) {
          visible[next_visible++] = b;
        }
      }
      if (!traced) continue;
      // Completion is monotone in ticket order: poll the oldest open one.
      while (next_done < submitted.load(std::memory_order_acquire)) {
        auto d = c.TryWait(
            IngestTicket{ticket_seq[next_done].load(std::memory_order_acquire)});
        if (!d.ok()) {
          r.ops.Count(d.status(), "serve TryWait");
          next_done = n_total;
          break;
        }
        if (!d.value()) break;
        done[next_done++] = NowNs();
      }
    }
  });

  std::vector<std::pair<int64_t, int64_t>> checkpoints;
  std::thread checkpointer;
  if (w.checkpoint_every_ms > 0) {
    checkpointer = std::thread([&] {
      const int64_t period = int64_t(w.checkpoint_every_ms) * 1'000'000;
      for (int64_t next = t_start + period; next < t_window_end;
           next += period) {
        SleepUntilNs(next);
        const int64_t a = NowNs();
        r.ops.Count(c.Checkpoint(), "serve checkpoint");
        checkpoints.emplace_back(a, NowNs());
      }
    });
  }

  for (size_t i = 0; i < n_total; ++i) {
    due[i] = t_start + int64_t(double(i) * interval_ns);
    SleepUntilNs(due[i]);
    sent_at[i] = NowNs();
    auto t = c.Submit(r.stream.Batch(first + i), kBatchUpdates);
    submit_end[i] = NowNs();
    r.ops.Count(t.status(), "serve submit");
    ticket_seq[i].store(t.ok() ? t.value().seq : 0, std::memory_order_release);
    submitted.store(i + 1, std::memory_order_release);
  }
  e.next_batch += n_total;
  const int64_t f0 = NowNs();
  r.ops.Count(c.Flush(), "final flush");
  const int64_t f1 = NowNs();
  producer_done.store(true, std::memory_order_release);
  if (checkpointer.joinable()) checkpointer.join();
  querier.join();

  size_t on_time = 0;
  for (size_t i = 0; i < n_window; ++i) {
    out.late_ns.push_back(uint64_t(sent_at[i] - due[i]));
    on_time += sent_at[i] < t_window_end;
    if (visible[i] >= 0) out.visible_ns.push_back(uint64_t(visible[i] - due[i]));
  }
  out.achieved_over_offered = double(on_time) / double(n_window);
  if (!traced) return out;

  for (size_t i = 0; i < n_total; ++i) {
    if (visible[i] < 0 || done[i] < 0) continue;
    const int64_t d = std::min(done[i], visible[i]);  // poll resolution
    const uint64_t id = first + i;
    const int64_t root = r.trace.Add("serve.batch", id, -1, due[i], visible[i]);
    const int64_t ticket =
        r.trace.Add("sharded_ingestor.ticket", id, root, due[i], d);
    r.trace.Add("gen.late", id, ticket, due[i], sent_at[i]);
    r.trace.Add("client.submit", id, ticket, sent_at[i], submit_end[i]);
    r.trace.Add("sharded_ingestor.publish", id, root, d, visible[i]);
    if (i < n_window) {
      out.submit_ns.push_back(uint64_t(submit_end[i] - sent_at[i]));
      out.ticket_ns.push_back(uint64_t(d - due[i]));
      out.publish_ns.push_back(uint64_t(visible[i] - d));
    }
  }
  for (const QuerySpan& q : out.query_spans.values()) {
    static const std::map<QueryKind, const char*> kSpanName = {
        {QueryKind::kPoint, "client.query_point"},
        {QueryKind::kTopK, "client.query_topk"},
        {QueryKind::kScalar, "client.query_scalar"},
        {QueryKind::kRank, "client.query_rank"}};
    r.trace.Add(kSpanName.at(w.queries[q.spec].kind), kQueryTraceBase + q.seq,
                -1, q.start_ns, q.end_ns);
  }
  for (const auto& [a, b] : checkpoints) {
    r.trace.Add("sharded_ingestor.checkpoint", kControlTraceBase, -1, a, b);
  }
  r.trace.Add("sharded_ingestor.flush", kControlTraceBase, -1, f0, f1);
  return out;
}

bool IsLinear(const std::string& family) {
  return family == "ams_f2" || family == "sis_l0" || family == "rank_decision";
}

/// The correctness gate, after the final Flush. Every check counts as one
/// operation. Linear families must equal, bit for bit, one registry sketch
/// fed the same batches; misra_gries must never overestimate and
/// underestimate by at most 2m/(k+1); every family must account for every
/// submitted update.
void Gate(Run& r, const Engine& e) {
  const Client& c = *e.client;
  const std::vector<int64_t> freq = r.stream.FrequenciesAfter(e.next_batch);
  const wbs::engine::SketchConfig cfg = SketchConfigFor(r.w);
  const uint64_t m = e.next_batch * kBatchUpdates;
  for (const std::string& family : r.w.sketches) {
    auto h = c.Handle(family);
    if (!r.ops.Count(h.status(), "gate handle")) continue;
    auto raw = c.RawSummary(h.value());
    if (!r.ops.Count(raw.status(), "gate summary")) continue;
    const SketchSummary& got = raw.value();
    r.ops.Count(got.updates == m && !got.stale,
                (family + ": update accounting").c_str());
    if (IsLinear(family)) {
      auto ref = LinearReference(family, cfg, r.stream, e.next_batch);
      if (!r.ops.Count(ref.status(), "gate reference")) continue;
      const SketchSummary want = ref.value()->Summary();
      r.ops.Count(std::memcmp(&got.scalar, &want.scalar, sizeof(double)) == 0 &&
                      got.updates == want.updates,
                  (family + ": bit-identical to single-sketch reference").c_str());
      if (family == "rank_decision") {
        auto v = c.QueryRank(h.value());
        r.ops.Count(v.ok() && v.value().rank_at_least_k == (want.scalar != 0),
                    "rank_decision: typed verdict");
      } else {
        auto v = c.QueryScalar(h.value());
        r.ops.Count(v.ok() && std::memcmp(&v.value().value, &want.scalar,
                                          sizeof(double)) == 0,
                    (family + ": typed scalar").c_str());
      }
    } else if (family == "misra_gries") {
      const double bound = 2.0 * double(m) / double(cfg.misra_gries.counters + 1);
      bool ok = true;
      for (uint64_t item = 0; item < freq.size(); ++item) {
        const double est = got.Estimate(item);
        const double f = double(freq[item]);
        if (est > f || f - est > bound) {
          std::fprintf(stderr, "misra_gries: item %llu est %.0f true %.0f\n",
                       (unsigned long long)item, est, f);
          ok = false;
          break;
        }
      }
      r.ops.Count(ok, "misra_gries: never over, under by <= 2m/(k+1)");
    }
  }
}

/// Fraction of the exact phi-heavy items (f >= phi * m) that the engine's
/// final candidate list of `family` holds; 1 when nothing is phi-heavy.
double Recall(const Run& r, const Engine& e, const std::string& family) {
  const std::vector<int64_t> freq = r.stream.FrequenciesAfter(e.next_batch);
  auto h = e.client->Handle(family);
  if (!h.ok()) return 0;
  auto raw = e.client->RawSummary(h.value());
  if (!raw.ok()) return 0;
  const double threshold =
      SketchConfigFor(r.w).hh.phi * double(e.next_batch * kBatchUpdates);
  size_t heavy = 0, found = 0;
  for (uint64_t item = 0; item < freq.size(); ++item) {
    if (double(freq[item]) < threshold) continue;
    ++heavy;
    for (const auto& wi : raw.value().items) found += wi.item == item;
  }
  return heavy == 0 ? 1.0 : double(found) / double(heavy);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

/// Merge-cache counters summed over the engine's sketches.
struct CacheCounters {
  double hits = 0, incremental = 0, rebuilds = 0;
};

CacheCounters ReadCache(const Client& c) {
  CacheCounters out;
  for (const wbs::engine::MetricSample& s : c.Metrics().samples) {
    const std::string& n = s.name;
    auto ends = [&n](const char* suffix) {
      const size_t k = std::strlen(suffix);
      return n.size() >= k && n.compare(n.size() - k, k, suffix) == 0;
    };
    if (n.rfind("engine.sketch.", 0) != 0) continue;
    if (ends(".merge_cache.hits_total")) out.hits += double(s.value);
    if (ends(".merge_cache.incremental_total")) out.incremental += double(s.value);
    if (ends(".merge_cache.rebuilds_total")) out.rebuilds += double(s.value);
  }
  return out;
}

double WireBytes(const Client& c) {
  double bytes = 0;
  for (const wbs::engine::MetricSample& s : c.Metrics().samples) {
    if (s.name.rfind("engine.shard.", 0) != 0) continue;
    if (s.name.find(".wire.bytes_out_total") != std::string::npos ||
        s.name.find(".wire.bytes_in_total") != std::string::npos) {
      bytes += double(s.value);
    }
  }
  return bytes;
}

/// Time of one backend Snapshot (the per-shard summary a query folds):
/// fetch and deserialize over the wire on tcp, a pointer copy in process.
std::vector<uint64_t> ShardSummaryNs(Run& r, const Engine& e) {
  const auto& ing = e.client->ingestor();
  const auto& backend = ing.backend();
  std::vector<uint64_t> ns;
  int64_t spent = 0;
  while (ns.size() < 9 * backend.num_shards() || spent < 20'000'000) {
    for (size_t shard = 0; shard < backend.num_shards(); ++shard) {
      for (size_t k = 0; k < r.w.sketches.size(); ++k) {
        const int64_t a = NowNs();
        auto snap = backend.Snapshot(shard, k);
        const int64_t b = NowNs();
        r.ops.Count(snap.status(), "backend snapshot");
        ns.push_back(uint64_t(b - a));
        spent += b - a;
      }
    }
  }
  return ns;
}

void PrintResult(const Run& r, const std::vector<std::pair<std::string,
                                                           std::string>>& units,
                 bool correct) {
  std::string samples = "{\"samples\": {";
  bool first = true;
  for (const auto& [name, n] : r.samples) {
    samples += (first ? "\"" : ", \"") + name + "\": " + std::to_string(n);
    first = false;
  }
  std::printf("%s}}\n", samples.c_str());
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.ops.attempted.load()) +
          ", \"failed\": " + std::to_string(r.ops.failed.load()) +
          ", \"metrics\": {";
  first = true;
  for (const auto& [name, unit] : units) {
    auto it = r.metrics.find(name);
    const double v = it == r.metrics.end() ? 0 : it->second;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + unit + "\"}";
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
}

const std::vector<std::pair<std::string, std::string>>& EndToEndUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"setup_s", "s"},
      {"ingest_mups", "Mupd/s"},
      {"visible_p50_ms", "ms"},
      {"query_p50_us", "us"},
      {"success_frac", "frac"},
      {"peak_rss_mb", "MB"},
  };
  return kUnits;
}

const char* const kFamilies[] = {"misra_gries", "ams_f2",  "sis_l0",
                                 "robust_hh",   "crhf_hh", "rank_decision"};

std::vector<std::pair<std::string, std::string>> PerLayerUnits() {
  std::vector<std::pair<std::string, std::string>> u = {
      {"client.visible_p99_ms", "ms"},
      {"client.query_p99_us", "us"},
      {"client.queries_per_s", "1/s"},
      {"client.submit_us_p50", "us"},
      {"client.submit_us_p99", "us"},
      {"sharded_ingestor.ticket_ms_p50", "ms"},
      {"sharded_ingestor.ticket_ms_p99", "ms"},
      {"sharded_ingestor.publish_ms_p50", "ms"},
      {"sharded_ingestor.flush_ms", "ms"},
      {"sharded_ingestor.checkpoint_ms_p50", "ms"},
      {"sharded_ingestor.distinct_per_update", "frac"},
      {"sharded_ingestor.cache_hit_frac", "frac"},
      {"sharded_ingestor.cache_rebuild_frac", "frac"},
  };
  for (const char* kind : {"point", "topk", "scalar", "rank"}) {
    u.push_back({std::string("client.query_") + kind + "_us_p50", "us"});
    u.push_back({std::string("client.query_") + kind + "_us_p99", "us"});
  }
  for (const char* f : kFamilies) {
    const std::string p = std::string("builtin_sketches.") + f;
    u.push_back({p + ".apply_ns", "ns"});
    u.push_back({p + ".space_bits", "bits"});
  }
  u.push_back({"builtin_sketches.robust_hh.recall", "frac"});
  u.push_back({"builtin_sketches.crhf_hh.recall", "frac"});
  for (const char* f : kFamilies) {
    const std::string p = std::string("wire.") + f;
    u.push_back({p + ".serialize_us", "us"});
    u.push_back({p + ".deserialize_us", "us"});
    u.push_back({p + ".bytes", "bytes"});
  }
  u.push_back({"remote_backend.shard_summary_us_p50", "us"});
  u.push_back({"remote_backend.wire_bytes_per_update", "bytes"});
  u.push_back({"gen.late_us_p99", "us"});
  u.push_back({"gen.achieved_over_offered", "frac"});
  u.push_back({"trace.overhead_frac", "frac"});
  return u;
}

bool ServeValid(Run& r, ServeResult& s) {
  const double late_p99_us = QuantileNs(s.late_ns, 0.99) / 1e3;
  r.metrics["gen.late_us_p99"] = late_p99_us;
  r.metrics["gen.achieved_over_offered"] = s.achieved_over_offered;
  if (late_p99_us <= kMaxLateP99Us &&
      s.achieved_over_offered >= kMinAchievedOverOffered) {
    return true;
  }
  std::fprintf(stderr,
               "engine_bench: serve phase INVALID: generator behind schedule "
               "(late p99 %.1f us, achieved/offered %.4f)\n",
               late_p99_us, s.achieved_over_offered);
  return false;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: engine_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "engine_bench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  // Inputs first, outside every timed span.
  const Stream stream = Generate(*w, args.seed, kPoolBatches);
  Run r(*w, stream);
  r.metrics["sharded_ingestor.distinct_per_update"] = stream.distinct_per_update;

  // ---- setup -------------------------------------------------------------
  // The last two set-ups are kept: one engine is saturated, the other
  // serves. Each phase then starts from the same stream position in every
  // run, so the sketch state the queries see evolves identically.
  std::vector<double> setup_s;
  Engine sat, srv;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t a = NowNs();
    auto e = SetUp(*w, stream);
    const int64_t b = NowNs();
    if (!r.ops.Count(e.status(), "setup")) return 1;
    setup_s.push_back(double(b - a) / 1e9);
    sat = std::move(srv);  // the engine set up before that shuts down here
    srv = std::move(e).value();
  }
  r.metrics["setup_s"] = Quantile(setup_s, 0.5);
  r.samples["setup_s"] = setup_s.size();

  // ---- saturate, serve, verify ---------------------------------------------
  const double sat_s = 0.5 * args.seconds;
  const double serve_s = 0.5 * args.seconds;
  if (!args.trace) {
    r.metrics["ingest_mups"] = Saturate(r, sat, sat_s, false);
  } else {
    const double plain = Saturate(r, sat, sat_s / 2, false);
    const double traced = Saturate(r, sat, sat_s / 2, true);
    r.metrics["trace.overhead_frac"] = 1.0 - traced / plain;
  }
  Gate(r, sat);
  sat = Engine{};

  // A serve phase whose generator fell behind its schedule is not
  // reported: it runs again on a fresh engine, up to kServeAttempts in all.
  ServeResult serve;
  CacheCounters cache0;
  bool serve_valid = false;
  const size_t spans_before_serve = r.trace.spans().size();
  for (int attempt = 1; attempt <= kServeAttempts && !serve_valid; ++attempt) {
    if (attempt > 1) {
      auto e = SetUp(*w, stream);
      if (!r.ops.Count(e.status(), "setup")) return 1;
      srv = std::move(e).value();
      r.trace.Truncate(spans_before_serve);
    }
    cache0 = ReadCache(*srv.client);
    serve = Serve(r, srv, serve_s, args.trace);
    serve_valid = ServeValid(r, serve);
    r.samples["serve_attempts"] = uint64_t(attempt);
  }
  r.metrics["peak_rss_mb"] = PeakRssMb();
  Gate(r, srv);

  // The p99s and the query rate did not repeat within a tenth across
  // identical runs (README.md), so the traced run reports them per layer.
  r.metrics["visible_p50_ms"] = QuantileNs(serve.visible_ns, 0.5) / 1e6;
  r.metrics["client.visible_p99_ms"] = QuantileNs(serve.visible_ns, 0.99) / 1e6;
  r.samples["visible_ms"] = serve.visible_ns.size();
  r.metrics["query_p50_us"] =
      Quantile(serve.window_query_p50_ns, kQueryWindowQuantile) / 1e3;
  r.samples["query_windows"] = serve.window_query_p50_ns.size();
  r.metrics["client.query_p99_us"] =
      QuantileNs(serve.query_ns.values(), 0.99) / 1e3;
  r.samples["query_us"] = serve.query_ns.values().size();
  r.metrics["client.queries_per_s"] =
      double(serve.queries_in_window) / serve.window_s;
  r.samples["queries"] = serve.queries_in_window;
  if (args.trace) {
    const CacheCounters cache1 = ReadCache(*srv.client);
    const double hits = cache1.hits - cache0.hits;
    const double folds = (cache1.incremental - cache0.incremental) +
                         (cache1.rebuilds - cache0.rebuilds);
    r.metrics["sharded_ingestor.cache_hit_frac"] = hits / std::max(1.0, hits + folds);
    r.metrics["sharded_ingestor.cache_rebuild_frac"] =
        (cache1.rebuilds - cache0.rebuilds) / std::max(1.0, hits + folds);
    r.metrics["remote_backend.wire_bytes_per_update"] =
        WireBytes(*srv.client) / double(srv.next_batch * kBatchUpdates);

    r.metrics["client.submit_us_p50"] = QuantileNs(serve.submit_ns, 0.5) / 1e3;
    r.metrics["client.submit_us_p99"] = QuantileNs(serve.submit_ns, 0.99) / 1e3;
    r.samples["client.submit_us"] = serve.submit_ns.size();
    r.metrics["sharded_ingestor.ticket_ms_p50"] = QuantileNs(serve.ticket_ns, 0.5) / 1e6;
    r.metrics["sharded_ingestor.ticket_ms_p99"] = QuantileNs(serve.ticket_ns, 0.99) / 1e6;
    r.samples["sharded_ingestor.ticket_ms"] = serve.ticket_ns.size();
    r.metrics["sharded_ingestor.publish_ms_p50"] = QuantileNs(serve.publish_ns, 0.5) / 1e6;
    r.samples["sharded_ingestor.publish_ms"] = serve.publish_ns.size();

    // Query latency per kind, from the (sampled) query spans.
    std::map<std::string, std::vector<uint64_t>> per_kind;
    for (const QuerySpan& q : serve.query_spans.values()) {
      per_kind[QueryKindName(w->queries[q.spec].kind)].push_back(
          uint64_t(q.end_ns - q.start_ns));
    }
    for (auto& [kind, ns] : per_kind) {
      const std::string p = "client.query_" + kind + "_us";
      r.samples[p] = ns.size();
      r.metrics[p + "_p50"] = QuantileNs(ns, 0.5) / 1e3;
      r.metrics[p + "_p99"] = QuantileNs(ns, 0.99) / 1e3;
    }

    std::vector<uint64_t> summary_ns = ShardSummaryNs(r, srv);
    r.metrics["remote_backend.shard_summary_us_p50"] = QuantileNs(summary_ns, 0.5) / 1e3;
    r.samples["remote_backend.shard_summary_us"] = summary_ns.size();

    std::vector<uint64_t> ckpt_ns;
    for (int i = 0; i < kCheckpointProbes; ++i) {
      const int64_t a = NowNs();
      r.ops.Count(srv.client->Checkpoint(), "checkpoint probe");
      const int64_t b = NowNs();
      r.trace.Add("sharded_ingestor.checkpoint", kControlTraceBase + 1 + i, -1, a, b);
      ckpt_ns.push_back(uint64_t(b - a));
    }
    r.metrics["sharded_ingestor.checkpoint_ms_p50"] = QuantileNs(ckpt_ns, 0.5) / 1e6;
    r.samples["sharded_ingestor.checkpoint_ms"] = ckpt_ns.size();

    const wbs::engine::SketchConfig cfg = SketchConfigFor(*w);
    for (const std::string& family : w->sketches) {
      auto probe = ProbeFamily(family, cfg, stream);
      if (!r.ops.Count(probe.status(), "family probe")) continue;
      const FamilyProbe& p = probe.value();
      r.metrics["builtin_sketches." + family + ".apply_ns"] = p.apply_ns;
      r.metrics["builtin_sketches." + family + ".space_bits"] = p.space_bits;
      r.metrics["wire." + family + ".serialize_us"] = p.serialize_us;
      r.metrics["wire." + family + ".deserialize_us"] = p.deserialize_us;
      r.metrics["wire." + family + ".bytes"] = p.bytes;
      if (family == "robust_hh" || family == "crhf_hh") {
        r.metrics["builtin_sketches." + family + ".recall"] =
            Recall(r, srv, family);
      }
    }

    // Self time per span name, derived from the spans.
    const std::vector<int64_t> self = r.trace.SelfTimes();
    std::map<std::string, std::pair<uint64_t, double>> by_name;
    for (size_t i = 0; i < self.size(); ++i) {
      auto& [count, total] = by_name[r.trace.spans()[i].name];
      ++count;
      total += double(self[i]);
    }
    std::fprintf(stderr, "%-36s %10s %14s\n", "span", "count", "mean self us");
    for (const auto& [name, ct] : by_name) {
      std::fprintf(stderr, "%-36s %10llu %14.3f\n", name.c_str(),
                   (unsigned long long)ct.first,
                   ct.second / double(ct.first) / 1e3);
    }
    if (!args.trace_out.empty() && !r.trace.WriteJsonl(args.trace_out)) {
      std::fprintf(stderr, "engine_bench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }

  // Not-applicable per-layer metrics (a layer the workload does not use)
  // read 0; name them so a 0 is never mistaken for a measurement.
  std::string na;
  if (args.trace) {
    for (const auto& [name, unit] : PerLayerUnits()) {
      if (!r.metrics.count(name)) na += (na.empty() ? "" : " ") + name;
    }
    if (!na.empty()) std::fprintf(stderr, "not applicable (0): %s\n", na.c_str());
  }

  if (!serve_valid) return 3;
  const bool correct = r.ops.failed.load() == 0;
  r.metrics["success_frac"] =
      1.0 - double(r.ops.failed.load()) / double(r.ops.attempted.load());
  if (args.trace) {
    PrintResult(r, PerLayerUnits(), correct);
  } else {
    PrintResult(r, EndToEndUnits(), correct);
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
