// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// ShardBackend — the pluggable boundary between the engine's ingestion
// pipeline and the place its shards actually live.
//
// ShardedIngestor used to hard-code a private, process-local `Shard` struct;
// everything below the scatter/router/ticket machinery is now behind this
// interface, so shards can live in this process (`InProcessBackend`, the
// former code path, bit-identical, zero-copy), behind a TCP socket speaking
// the wire format (`TcpBackendFactory` in remote_backend.h), or mixed
// shard-by-shard (`CompositeBackendFactory`) — without touching the engine
// core.
//
// Contract (what the ingestor guarantees / expects):
//
//   * ApplyBatch(shard, ...) is called by at most ONE thread at a time per
//     shard (each shard is owned by one worker; inline mode serializes under
//     the submit mutex). Different shards are applied concurrently.
//   * Epoch / Snapshot / SnapshotSerialized may be called from ANY thread at
//     any time, concurrently with ApplyBatch on the same shard — backends
//     synchronize snapshot publication internally. (Snapshot.sketch,
//     Snapshot.epoch) must be a consistent pair: the state really published
//     at that epoch.
//   * Epoch counts snapshot publications and only advances. A backend
//     publishes at the first batch boundary after `snapshot_min_updates`
//     updates since the last publication; Flush(shard) — called only at
//     quiescence — publishes a lagging shard so queries become exact.
//   * A failed publication must surface on the NEXT Snapshot call as its
//     Status (after bumping the epoch so caches notice), never as a stale
//     answer served silently.
//   * LiveSummary and SpaceBits are only called at quiescence (the ingestor
//     checks); they read live, worker-owned state.
//
// The in-process backend applies raw update pointers without a copy — the
// fast path current benches measure. A remote backend encodes the batch
// with wire::EncodeUpdates and ships frames; `capabilities()` tells callers
// which world they are in.

#ifndef WBS_ENGINE_BACKEND_H_
#define WBS_ENGINE_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/metrics.h"
#include "engine/sketch.h"
#include "engine/wire.h"
#include "stream/updates.h"

namespace wbs::engine {

/// Everything a backend needs to build its shards. The ingestor fills this
/// from IngestorOptions after validation/clamping.
struct BackendOptions {
  size_t num_shards = 1;
  std::vector<std::string> sketches;  ///< registry names, one group per shard
  SketchConfig config;                ///< base config; see ShardConfigFor()
  size_t snapshot_min_updates = 1024;
  /// When true, `config.shard_seed` is already resolved and must be used
  /// as-is instead of re-deriving per shard — set by the tcp shard host,
  /// whose single-shard cells receive the seed their dialer derived.
  bool shard_seeds_resolved = false;
};

/// What a backend can and cannot do; callers use this for routing decisions
/// and diagnostics, not correctness (the interface semantics are uniform).
struct BackendCapabilities {
  bool zero_copy = false;  ///< ApplyBatch consumes raw pointers, no encode
  bool crosses_process_boundary = false;  ///< state ships via the wire format
  uint8_t wire_version = wire::kFormatVersion;  ///< format the backend speaks
};

/// A consistent (published state, epoch) pair for one (shard, sketch).
/// `sketch` is null when the shard has not published yet.
struct ShardSnapshot {
  std::shared_ptr<const Sketch> sketch;
  uint64_t epoch = 0;
};

/// Snapshot state in serialized form — what an actual transport ships.
/// `state` is a kSketchState frame, empty when the shard never published.
struct SerializedSnapshot {
  std::string state;
  uint64_t epoch = 0;
};

class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Stable backend identifier ("inprocess", "tcp", "composite").
  virtual const std::string& name() const = 0;

  virtual BackendCapabilities capabilities() const = 0;

  virtual size_t num_shards() const = 0;

  /// Applies `count` turnstile updates to `shard` (single caller per shard
  /// at a time; see the contract above). The backend aggregates duplicates,
  /// feeds every sketch of the shard's group, and publishes a snapshot when
  /// the throttle allows.
  virtual Status ApplyBatch(size_t shard, const stream::TurnstileUpdate* data,
                            size_t count) = 0;

  /// The shard's snapshot publication count. Monotone and polled per query,
  /// so it must be a local read: an atomic load in process; on a remote
  /// backend the highest epoch any reply reported, recorded before the
  /// call that received it returns. Unavailable while the shard is known
  /// unreachable (its last call failed).
  virtual Result<uint64_t> Epoch(size_t shard) const = 0;

  /// The published snapshot of one sketch, as a live Sketch instance the
  /// merge path can fold (remote backends deserialize the shipped state).
  virtual Result<ShardSnapshot> Snapshot(size_t shard,
                                         size_t sketch_index) const = 0;

  /// The published snapshot in wire form (diagnostics, tooling, benches).
  virtual Result<SerializedSnapshot> SnapshotSerialized(
      size_t shard, size_t sketch_index) const = 0;

  /// Publishes the shard's snapshot if it lags live state. Quiescence only.
  virtual Status Flush(size_t shard) = 0;

  /// Shard handoff import: replaces the shard's live sketch group with the
  /// states decoded from `frames` (one kSketchState frame per configured
  /// sketch, in sketch order — the wire handoff format produced by
  /// SnapshotSerialized on the source), then publishes a snapshot so the
  /// imported history is immediately merge-visible. Called only at a
  /// topology barrier (no concurrent ApplyBatch on the shard). The default
  /// is Unimplemented; both builtin backends support it.
  virtual Status ImportShardState(size_t shard,
                                  const std::vector<std::string>& frames) {
    (void)shard;
    (void)frames;
    return Status::Unimplemented(name() +
                                 " backend: ImportShardState not supported");
  }

  /// Observability: the shard's metric samples, safe from any thread
  /// concurrently with ApplyBatch (backends read relaxed atomics or go
  /// through their own control channel). Names are UNPREFIXED per-shard
  /// identifiers ("epoch", "snapshot_lag_updates", "serialize_us",
  /// "wire.bytes_out_total", ...); the engine prepends
  /// `engine.shard.<global id>.` when assembling its snapshot. The default
  /// reports nothing — a backend without instrumentation is still valid.
  virtual Result<std::vector<MetricSample>> Metrics(size_t shard) const {
    (void)shard;
    return std::vector<MetricSample>{};
  }

  /// Liveness probe for one shard, bounded by `timeout_ms`, safe from any
  /// thread. OK means the shard answered in time; DeadlineExceeded /
  /// Unavailable mean it did not (the supervisor's failure signal). The
  /// default answers OK immediately — an in-process shard cannot die
  /// separately from the engine, so it is always live.
  virtual Status Heartbeat(size_t shard, uint64_t timeout_ms) {
    (void)shard;
    (void)timeout_ms;
    return Status::OK();
  }

  /// Fault injection for tests and drills: kills the shard's serving host
  /// (see TcpShardHost crash modes); `torn` first emits a checksum-corrupted
  /// frame. Unimplemented by default — backends whose shards cannot crash
  /// independently (in-process) cannot fake it either.
  virtual Status InjectCrash(size_t shard, bool torn) {
    (void)shard;
    (void)torn;
    return Status::Unimplemented(name() + " backend: InjectCrash not supported");
  }

  /// Transient-partition injection: severs the shard's live connections
  /// WITHOUT killing the peer, so a reconnecting transport can resync with
  /// no state loss and no re-home. Unimplemented by default — only
  /// transports with real connections (TCP) can be partitioned.
  virtual Status InjectPartition(size_t shard) {
    (void)shard;
    return Status::Unimplemented(name() +
                                 " backend: InjectPartition not supported");
  }

  /// The network endpoint ("host:port") serving this shard, or "" for
  /// shards with no endpoint (in-process). Placements
  /// record this so supervision can group shards into per-host failure
  /// domains: when one shard on an endpoint misses a heartbeat, every
  /// placement on that endpoint goes kSuspect together.
  virtual std::string Endpoint(size_t shard) const {
    (void)shard;
    return std::string();
  }

  /// Live (not snapshot) summary of one sketch. Quiescence only.
  virtual Result<SketchSummary> LiveSummary(size_t shard,
                                            size_t sketch_index) const = 0;

  /// Total state bits across all shards and sketches. Quiescence only.
  virtual uint64_t SpaceBits() const = 0;
};

/// Builds a backend from options. IngestorOptions carries one of these;
/// a default-constructed (empty) factory means InProcessBackendFactory().
using BackendFactory =
    std::function<Result<std::unique_ptr<ShardBackend>>(const BackendOptions&)>;

/// The process-local backend — the engine's original shard code behind the
/// new interface: zero-copy apply, shared per-shard aggregation, clone-based
/// snapshot slots with atomic epochs. Bit-identical to the pre-backend
/// engine for every workload.
BackendFactory InProcessBackendFactory();

/// Mixed placement: shard i is hosted by a single-shard child backend built
/// from `placements[i % placements.size()]`, so one engine can keep some
/// shards in-process and put others behind the tcp wire (or any other
/// factory) SIMULTANEOUSLY. The composite resolves each child's shard seed
/// from the global shard id before delegating, so a shard samples
/// identically no matter which placement pattern hosts it. Capabilities
/// report the conservative union (not zero-copy, crosses a process
/// boundary) whenever any child does.
BackendFactory CompositeBackendFactory(std::vector<BackendFactory> placements);

/// Derives the per-shard config: `shard_seed` from (config.seed, shard) by
/// the engine's fixed seed schedule. Every backend must use this so a shard
/// samples identically no matter where it lives.
SketchConfig ShardConfigFor(const SketchConfig& base, size_t shard);

/// Seed for the merge-target instances the query path creates (distinct
/// from every shard seed).
uint64_t MergeSeedFor(const SketchConfig& base);

/// Reconstructs a sketch from a kSketchState frame: creates `name` from the
/// global registry with `config` (which must match the serializing side's),
/// then restores the framed state. Checksum, version, name and dimension
/// mismatches all surface as Status errors.
Result<std::unique_ptr<Sketch>> DeserializeSketch(const std::string& name,
                                                  const SketchConfig& config,
                                                  const std::string& frame);

/// Serializes a sketch into a kSketchState frame (the inverse).
Result<std::string> SerializeSketch(const Sketch& sketch);

}  // namespace wbs::engine

#endif  // WBS_ENGINE_BACKEND_H_
