// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "workloads.h"

#include <algorithm>

#include "common/random.h"
#include "engine/remote_backend.h"
#include "stream/workload.h"

namespace perfbench {
namespace {

using wbs::stream::TurnstileUpdate;

// Offered serve rates sit below each workload's saturation throughput on a
// 4-vCPU x86 host (see README.md), so the open-loop producer measures
// visibility lag, not an ever-growing backlog.
const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kWorkloads = {
      {"zipf_hot",
       {"misra_gries", "ams_f2", "sis_l0", "robust_hh", "crhf_hh"},
       /*universe=*/4096,
       /*zipf_alpha=*/1.2,
       /*strict_turnstile=*/false,
       /*tcp=*/false,
       /*shards=*/8,
       /*serve_rate_ups=*/3.5e6,
       /*checkpoint_every_ms=*/0,
       {{QueryKind::kPoint, "misra_gries"},
        {QueryKind::kTopK, "robust_hh"},
        {QueryKind::kScalar, "ams_f2"},
        {QueryKind::kPoint, "crhf_hh"},
        {QueryKind::kTopK, "misra_gries"},
        {QueryKind::kScalar, "sis_l0"}}},
      {"uniform_wide",
       {"misra_gries", "ams_f2", "sis_l0", "robust_hh", "crhf_hh"},
       /*universe=*/uint64_t{1} << 20,
       /*zipf_alpha=*/0,
       /*strict_turnstile=*/false,
       /*tcp=*/false,
       /*shards=*/8,
       /*serve_rate_ups=*/1.5e6,
       /*checkpoint_every_ms=*/0,
       {{QueryKind::kPoint, "misra_gries"},
        {QueryKind::kTopK, "robust_hh"},
        {QueryKind::kScalar, "ams_f2"},
        {QueryKind::kPoint, "crhf_hh"},
        {QueryKind::kTopK, "misra_gries"},
        {QueryKind::kScalar, "sis_l0"}}},
      {"tcp_turnstile",
       {"ams_f2", "sis_l0", "rank_decision"},
       /*universe=*/64 * 64,
       /*zipf_alpha=*/1.1,
       /*strict_turnstile=*/true,
       /*tcp=*/true,
       /*shards=*/4,
       /*serve_rate_ups=*/0.75e6,
       /*checkpoint_every_ms=*/250,
       {{QueryKind::kScalar, "ams_f2"},
        {QueryKind::kScalar, "sis_l0"},
        {QueryKind::kRank, "rank_decision"}}},
  };
  return kWorkloads;
}

/// Strict turnstile: every 4th update deletes one copy of an item still live
/// from an earlier insert in the same pool, so every prefix of the cyclic
/// replay keeps all frequencies non-negative.
std::vector<TurnstileUpdate> StrictTurnstile(const wbs::stream::ItemStream& ins,
                                             size_t total,
                                             wbs::RandomTape* tape) {
  std::vector<TurnstileUpdate> out;
  out.reserve(total);
  std::vector<uint64_t> live;
  size_t next_insert = 0;
  for (size_t i = 0; i < total; ++i) {
    if (i % 4 == 3 && !live.empty()) {
      const size_t pick = size_t(tape->UniformInt(live.size()));
      out.push_back({live[pick], -1});
      live[pick] = live.back();
      live.pop_back();
    } else {
      const uint64_t item = ins[next_insert++].item;
      out.push_back({item, 1});
      live.push_back(item);
    }
  }
  return out;
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPoint:
      return "point";
    case QueryKind::kTopK:
      return "topk";
    case QueryKind::kScalar:
      return "scalar";
    case QueryKind::kRank:
      return "rank";
  }
  return "unknown";
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

wbs::engine::SketchConfig SketchConfigFor(const Workload& w) {
  wbs::engine::SketchConfig cfg;
  cfg.universe = w.universe;
  cfg.seed = 2025;
  cfg.rank.n = 64;
  cfg.rank.k = 8;
  return cfg;
}

wbs::engine::ClientOptions ClientOptionsFor(const Workload& w) {
  wbs::engine::ClientOptions opts;
  opts.ingest.num_shards = w.shards;
  opts.ingest.num_threads = 2;
  opts.ingest.sketches = w.sketches;
  opts.ingest.config = SketchConfigFor(w);
  if (w.tcp) opts.ingest.backend = wbs::engine::TcpBackendFactory();
  return opts;
}

std::vector<int64_t> Stream::FrequenciesAfter(uint64_t batches) const {
  const uint64_t passes = batches / pool_batches;
  std::vector<int64_t> f(pool_counts.size());
  for (size_t i = 0; i < f.size(); ++i) f[i] = int64_t(passes) * pool_counts[i];
  const size_t prefix = size_t(batches % pool_batches) * kBatchUpdates;
  for (size_t i = 0; i < prefix; ++i) f[pool[i].item] += pool[i].delta;
  return f;
}

Stream Generate(const Workload& w, uint64_t seed, size_t pool_batches) {
  wbs::RandomTape tape(seed * 0x9e3779b97f4a7c15ULL + w.universe);
  tape.set_logging(false);
  const size_t total = pool_batches * kBatchUpdates;
  Stream s;
  s.pool_batches = pool_batches;
  if (w.strict_turnstile) {
    const size_t inserts = total - total / 4;
    auto ins = wbs::stream::ZipfStream(w.universe, inserts, w.zipf_alpha, &tape);
    s.pool = StrictTurnstile(ins, total, &tape);
  } else {
    auto items = w.zipf_alpha > 0
                     ? wbs::stream::ZipfStream(w.universe, total, w.zipf_alpha,
                                               &tape)
                     : wbs::stream::UniformStream(w.universe, total, &tape);
    s.pool.reserve(total);
    for (const auto& u : items) s.pool.push_back({u.item, 1});
  }
  s.pool_counts.assign(w.universe, 0);
  for (const auto& u : s.pool) s.pool_counts[u.item] += u.delta;

  std::vector<uint64_t> scratch(kBatchUpdates);
  double distinct = 0;
  for (size_t b = 0; b < pool_batches; ++b) {
    const TurnstileUpdate* batch = s.Batch(b);
    for (size_t i = 0; i < kBatchUpdates; ++i) scratch[i] = batch[i].item;
    std::sort(scratch.begin(), scratch.end());
    distinct += double(std::unique(scratch.begin(), scratch.end()) -
                       scratch.begin());
  }
  s.distinct_per_update = distinct / double(total);
  return s;
}

}  // namespace perfbench
