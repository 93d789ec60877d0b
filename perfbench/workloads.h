// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// The engine benchmark's workloads and their seeded input generator.
//
// Every workload streams fixed-size batches of kBatchUpdates turnstile
// updates. The generator builds a POOL of batches from the workload seed
// before anything is timed; the run then replays the pool cyclically
// (stream batch b is pool batch b % pool_batches), so a run of any length
// sees the same input distribution and the exact frequency vector after any
// number of batches is known without storing the stream.

#ifndef WBS_PERFBENCH_WORKLOADS_H_
#define WBS_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/client.h"
#include "stream/updates.h"

namespace perfbench {

inline constexpr size_t kBatchUpdates = 4096;

enum class QueryKind { kPoint, kTopK, kScalar, kRank };

const char* QueryKindName(QueryKind kind);

struct QuerySpec {
  QueryKind kind;
  const char* sketch;
};

struct Workload {
  const char* name;
  std::vector<std::string> sketches;
  uint64_t universe;
  double zipf_alpha;            ///< 0: uniform over the universe
  bool strict_turnstile;        ///< 1 update in 4 deletes an earlier insert
  bool tcp;                     ///< self-hosted tcp backend, else in-process
  size_t shards;
  double serve_rate_ups;        ///< open-loop offered rate in the serve phase
  uint64_t checkpoint_every_ms; ///< Checkpoint() period during serve; 0 = none
  std::vector<QuerySpec> queries;  ///< closed-loop query mix, cycled
};

/// The named workload, or nullptr.
const Workload* FindWorkload(const std::string& name);

wbs::engine::SketchConfig SketchConfigFor(const Workload& w);
wbs::engine::ClientOptions ClientOptionsFor(const Workload& w);

/// The generated input of one run.
struct Stream {
  std::vector<wbs::stream::TurnstileUpdate> pool;  ///< pool_batches batches
  size_t pool_batches = 0;
  std::vector<int64_t> pool_counts;  ///< net frequency per item, one pass
  /// Mean over pool batches of (distinct items in the batch) / batch size:
  /// the share of each batch the engine's pre-aggregation cannot fold away.
  double distinct_per_update = 0;

  const wbs::stream::TurnstileUpdate* Batch(uint64_t b) const {
    return pool.data() + (b % pool_batches) * kBatchUpdates;
  }
  /// Exact net frequency of every item after stream batches [0, batches).
  std::vector<int64_t> FrequenciesAfter(uint64_t batches) const;
};

/// Builds the pool for `w` from `seed` (single-threaded, deterministic).
Stream Generate(const Workload& w, uint64_t seed, size_t pool_batches);

}  // namespace perfbench

#endif  // WBS_PERFBENCH_WORKLOADS_H_
