// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// engine::Client — the typed multi-producer facade over ShardedIngestor,
// and the engine's public API. It replaced the three seed-era pain points
// of the (since-deleted) Driver surface:
//
//   * string-keyed queries: a `SketchHandle` is resolved ONCE (name ->
//     sketch index + declared answer family) and then every query is an
//     index load — no per-call map hashing, no linear scan of summary
//     items (point lookups binary-search the summary's by-item index);
//   * the untyped `SketchSummary` grab-bag: per-family request/result
//     types (`PointEstimate`, `TopK`, `ScalarEstimate`, `RankVerdict`)
//     answer exactly what the sketch family can answer, and asking the
//     wrong family is an InvalidArgument instead of a silently empty
//     field;
//   * blocking single-producer ingest: `Submit` is safe from any number
//     of threads and returns a sequence-numbered `IngestTicket`
//     immediately; worker backpressure delays the ticket's completion
//     (observable via `Wait`/`TryWait`), never the submitting thread.
//
// The Client adds no state of its own on the data path — answers are
// bit-identical to the legacy Driver/SketchSummary surface over the same
// submissions (asserted in tests/engine_client_test.cc).
//
// Typical use:
//
//   auto client = Client::Create(opts).value();
//   SketchHandle f2 = client->Handle("ams_f2").value();
//   auto ticket = client->Submit(batch).value();     // returns immediately
//   ...                                              // more producers run
//   client->Wait(ticket);                            // prefix through ticket
//   double est = client->QueryScalar(f2).value().value;

#ifndef WBS_ENGINE_CLIENT_H_
#define WBS_ENGINE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/registry.h"
#include "engine/sharded_ingestor.h"
#include "engine/sketch.h"
#include "stream/updates.h"

namespace wbs::engine {

struct ClientOptions {
  IngestorOptions ingest;
};

/// A pre-resolved reference to one configured sketch: the sketch's index in
/// the engine's sketch group plus its declared answer family. Cheap value
/// type — copy freely, share across query threads. Handles are bound to the
/// Client that issued them; using one against another Client is an
/// InvalidArgument (the indices would silently alias a different sketch).
class SketchHandle {
 public:
  SketchHandle() = default;

  bool valid() const { return owner_ != nullptr; }
  size_t index() const { return index_; }
  SketchFamily family() const { return family_; }

 private:
  friend class Client;
  SketchHandle(const void* owner, size_t index, SketchFamily family)
      : owner_(owner), index_(index), family_(family) {}

  const void* owner_ = nullptr;
  size_t index_ = 0;
  SketchFamily family_ = SketchFamily::kGeneric;
};

/// Result of a point-frequency query against a heavy-hitter family sketch.
struct PointEstimate {
  uint64_t item = 0;
  double estimate = 0;   ///< 0 when the item is not a tracked candidate
  bool tracked = false;  ///< candidate list holds a nonzero estimate for item
  uint64_t updates = 0;  ///< effective updates the answer summarizes
  /// Degraded serve: at least one shard was unreachable and its last folded
  /// snapshot answered in its place (supervision on; see FailoverOptions).
  bool stale = false;
};

/// Result of a top-k query: the k highest-estimate candidates,
/// estimate-descending (ties broken by item id ascending).
struct TopK {
  std::vector<hh::WeightedItem> items;
  uint64_t updates = 0;
  bool stale = false;  ///< degraded serve (see PointEstimate::stale)
};

/// Result of a scalar-estimate query (F2 moment, L0 distinct count, ...).
struct ScalarEstimate {
  double value = 0;
  uint64_t updates = 0;
  bool stale = false;  ///< degraded serve (see PointEstimate::stale)
};

/// Result of a rank-decision query: whether the streamed matrix has rank at
/// least the configured threshold k.
struct RankVerdict {
  bool rank_at_least_k = false;
  uint64_t updates = 0;
  bool stale = false;  ///< degraded serve (see PointEstimate::stale)
};

class Client {
 public:
  static Result<std::unique_ptr<Client>> Create(const ClientOptions& options);

  /// Resolves a configured sketch name to a handle. Do this once at setup;
  /// every per-call string lookup the old surface did is paid here instead.
  Result<SketchHandle> Handle(const std::string& sketch) const;

  // ---- ingest (multi-producer, asynchronous) -----------------------------

  /// Opens a producer session: its own FIFO lane in the submission stage,
  /// drained round-robin against every other session by the router, so one
  /// hot producer cannot starve the rest. Producers that skip this share
  /// the default session (exactly the pre-session engine). Any thread.
  Result<ProducerSession> OpenSession() { return ingestor_->OpenSession(); }

  /// Submits a batch of turnstile updates from ANY thread and returns a
  /// sequence-numbered ticket immediately; backpressure delays the ticket,
  /// not this call. Completion is monotone in sequence order: once
  /// Wait/TryWait report a ticket done, every earlier ticket is done too.
  Result<IngestTicket> Submit(const stream::TurnstileUpdate* updates,
                              size_t count) {
    return ingestor_->SubmitAsync(ProducerSession{}, updates, count);
  }
  Result<IngestTicket> Submit(const stream::TurnstileStream& s) {
    return ingestor_->SubmitAsync(ProducerSession{}, s.data(), s.size());
  }
  Result<IngestTicket> Submit(const ProducerSession& session,
                              const stream::TurnstileUpdate* updates,
                              size_t count) {
    return ingestor_->SubmitAsync(session, updates, count);
  }
  Result<IngestTicket> Submit(const ProducerSession& session,
                              const stream::TurnstileStream& s) {
    return ingestor_->SubmitAsync(session, s.data(), s.size());
  }

  /// Non-blocking Submit: where Submit would wait on the engine's inflight
  /// valves (IngestorOptions::max_inflight_tickets / max_inflight_bytes),
  /// TrySubmit returns ResourceExhausted immediately and the caller owns
  /// the retry policy — the fail-fast half of ticket-aware flow control.
  Result<IngestTicket> TrySubmit(const stream::TurnstileUpdate* updates,
                                 size_t count) {
    return ingestor_->TrySubmitAsync(ProducerSession{}, updates, count);
  }
  Result<IngestTicket> TrySubmit(const stream::TurnstileStream& s) {
    return ingestor_->TrySubmitAsync(ProducerSession{}, s.data(), s.size());
  }
  Result<IngestTicket> TrySubmit(const ProducerSession& session,
                                 const stream::TurnstileUpdate* updates,
                                 size_t count) {
    return ingestor_->TrySubmitAsync(session, updates, count);
  }
  Result<IngestTicket> TrySubmit(const ProducerSession& session,
                                 const stream::TurnstileStream& s) {
    return ingestor_->TrySubmitAsync(session, s.data(), s.size());
  }

  /// Insertion-only convenience: each item becomes a delta-1 update.
  Result<IngestTicket> SubmitItems(const stream::ItemUpdate* items,
                                   size_t count) {
    return ingestor_->SubmitItemsAsync(ProducerSession{}, items, count);
  }
  Result<IngestTicket> SubmitItems(const stream::ItemStream& s) {
    return ingestor_->SubmitItemsAsync(ProducerSession{}, s.data(), s.size());
  }

  /// Blocks until `ticket` (and every earlier ticket) is applied; returns
  /// the pipeline's first error, OK when healthy.
  Status Wait(const IngestTicket& ticket) const {
    return ingestor_->Wait(ticket);
  }

  /// Wait with a deadline: DeadlineExceeded if the ticket has not completed
  /// within `timeout_ms` (the ticket stays valid — callers may re-wait).
  Status WaitFor(const IngestTicket& ticket, uint64_t timeout_ms) const {
    return ingestor_->WaitFor(ticket, timeout_ms);
  }

  /// Non-blocking completion probe for `ticket`.
  Result<bool> TryWait(const IngestTicket& ticket) const {
    return ingestor_->TryWait(ticket);
  }

  /// Waits for all submitted work and publishes lagging snapshots, making
  /// subsequent queries exact for everything submitted before the call.
  Status Flush() { return ingestor_->Flush(); }

  /// Flush + stop and join the pipeline. The client stays queryable;
  /// further Submits fail. Idempotent.
  Status Finish() { return ingestor_->Finish(); }

  // ---- live topology (scale-out, handoff) --------------------------------
  //
  // Both operations are linearized at a batch boundary through the
  // router: batches submitted before the call land under the old table,
  // later ones under the new, and quiescence-free queries keep answering
  // throughout (from the old view until the new one is installed).

  /// Scale-out: adds `n` fresh shards (hosted by cells from `factory`;
  /// empty = in-process) and rebalances hash slots onto them. Existing
  /// shards keep their state and stay merge-visible, so answers remain a
  /// correct merge over all substreams ever ingested.
  Status AddShards(size_t n, BackendFactory factory = {}) {
    return ingestor_->AddShards(n, std::move(factory));
  }

  /// Live handoff: drains shard `shard`, serializes its published state
  /// (the engine wire format is the transfer format), imports it into a
  /// fresh cell built by `factory`, and re-points the shard id. Summaries
  /// immediately after the move are identical to immediately before; the
  /// four state-exact families continue bit-identically, the sampling
  /// heavy hitters continue as frozen-prefix + fresh-sampler mergeable
  /// summaries. On failure the topology is unchanged. Phase timings are
  /// recorded as trace spans ("move_shard" + children; see TraceSpans()).
  Status MoveShard(size_t shard, BackendFactory factory) {
    return ingestor_->MoveShard(shard, std::move(factory));
  }

  /// Slot-level migration: re-points the given hash slots (all owned by
  /// `source`) at shard `dest` without a whole-shard handoff. The source's
  /// frozen prefix stays merge-visible, so answers remain a merge over all
  /// substreams ever (bit-identical for the linear families). Fails
  /// Unavailable when `dest` is not healthy. Emits a "move_slots" span.
  Status MoveSlots(size_t source, std::vector<uint32_t> slots, size_t dest) {
    return ingestor_->MoveSlots(source, std::move(slots), dest);
  }

  /// Estimated per-slot update counts from scatter-path sampling; empty
  /// when IngestorOptions::slot_sample_shift is 0. Any thread.
  std::vector<uint64_t> SlotHeat() const { return ingestor_->SlotHeat(); }

  /// The autoscaling controller (nullptr unless autoscale.enabled). In
  /// manual mode (evaluation_interval_ms == 0) drive it with
  /// Autoscaler::EvaluateOnce().
  Autoscaler* autoscaler() const { return ingestor_->autoscaler(); }

  /// The current routing table, described (generation, shard count, slot
  /// ownership). Any thread.
  TopologyInfo Topology() const { return ingestor_->Topology(); }

  // ---- fault tolerance ----------------------------------------------------
  //
  // See FailoverOptions (sharded_ingestor.h) for the model: heartbeat
  // supervision, barrier checkpoints, and recovery through the
  // cell-replace step MoveShard uses, with exact bounded-loss accounting.

  /// Checkpoints every reachable shard's full state at a batch barrier.
  Status Checkpoint() { return ingestor_->Checkpoint(); }

  /// Re-homes shard `shard` from its last checkpoint into a fresh cell.
  Status RecoverShard(size_t shard, BackendFactory factory = {}) {
    return ingestor_->RecoverShard(shard, std::move(factory));
  }

  /// Checkpoint + crash + recover `shard` at ONE barrier: a provably
  /// loss-free failure exercise. Unimplemented for in-process placements.
  Status FailoverDrill(size_t shard, bool torn = false,
                       BackendFactory factory = {}) {
    return ingestor_->FailoverDrill(shard, torn, std::move(factory));
  }

  /// Crashes shard `shard`'s placement NOW (no barrier — in-flight batches
  /// die mid-stream). Unimplemented for in-process placements.
  Status InjectShardCrash(size_t shard, bool torn = false) {
    return ingestor_->InjectShardCrash(shard, torn);
  }

  /// Severs shard `shard`'s live connections without killing the peer (a
  /// transient partition; the transport resyncs). Unimplemented for
  /// backends without real connections.
  Status InjectShardPartition(size_t shard) {
    return ingestor_->InjectShardPartition(shard);
  }

  /// The supervisor's current verdict and loss accounting for `shard`.
  ShardHealthInfo Health(size_t shard) const {
    return ingestor_->Health(shard);
  }

  // ---- typed queries (quiescence-free, any thread) -----------------------
  //
  // All queries answer as of the latest published shard epochs (exact after
  // Flush/Finish) and return InvalidArgument when the handle's sketch
  // family cannot answer the requested kind.

  /// Estimated frequency of one item (heavy-hitter families).
  Result<PointEstimate> QueryPoint(const SketchHandle& handle,
                                   uint64_t item) const;

  /// The k highest-estimate candidates (heavy-hitter families). k == 0 is
  /// InvalidArgument; k larger than the candidate list returns all of it.
  Result<TopK> QueryTopK(const SketchHandle& handle, size_t k) const;

  /// The scalar estimate (scalar families: ams_f2's F2, sis_l0's L0, ...).
  Result<ScalarEstimate> QueryScalar(const SketchHandle& handle) const;

  /// The rank decision (rank_decision family).
  Result<RankVerdict> QueryRank(const SketchHandle& handle) const;

  /// The legacy untyped answer, unchanged from the Driver surface — the
  /// escape hatch for generic tooling and the bit-identity reference the
  /// typed projections are tested against. Prefer the typed queries.
  Result<SketchSummary> RawSummary(const SketchHandle& handle) const;

  // ---- observability -----------------------------------------------------

  /// A point-in-time read of the engine's full metric surface: every
  /// engine.* instrument, derived health gauges (uptime, inflight
  /// tickets/bytes, valve waiters, topology generation, per-shard
  /// updates/sec), per-shard backend samples (epoch, snapshot lag, wire
  /// traffic), and merge-cache counters. Any thread, no quiescence needed.
  MetricsSnapshot Metrics() const { return ingestor_->Metrics(); }

  /// Renders Metrics() as a human-readable table (default) or JSONL.
  void DumpMetrics(std::ostream& os, MetricsDumpFormat format =
                                         MetricsDumpFormat::kTable) const {
    ingestor_->DumpMetrics(os, format);
  }

  /// The retained control-plane trace spans (AddShards / MoveShard phases),
  /// oldest first.
  std::vector<TraceSpan> TraceSpans() const { return ingestor_->TraceSpans(); }

  // ---- introspection ----------------------------------------------------

  const ShardedIngestor& ingestor() const { return *ingestor_; }
  uint64_t updates_submitted() const { return ingestor_->updates_submitted(); }
  const std::vector<std::string>& sketch_names() const {
    return ingestor_->sketch_names();
  }

 private:
  Client(std::unique_ptr<ShardedIngestor> ingestor,
         std::vector<SketchFamily> families)
      : ingestor_(std::move(ingestor)), families_(std::move(families)) {}

  /// Validates handle ownership and that `family` may answer `kind`-style
  /// queries, then hands back the sketch index.
  Result<size_t> CheckHandle(const SketchHandle& handle,
                             const char* query_kind,
                             bool allowed_for_family) const;

  // Configuration lives in ingestor_->options() (post-clamp and therefore
  // authoritative); the Client adds no state of its own on the data path.
  std::unique_ptr<ShardedIngestor> ingestor_;
  std::vector<SketchFamily> families_;  ///< per configured sketch index
};

}  // namespace wbs::engine

#endif  // WBS_ENGINE_CLIENT_H_
