// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// TcpRemoteBackend — the engine's remote ShardBackend. Each shard lives
// behind a TcpShardHost session (tcp_transport.h), speaking the engine wire
// format over real sockets. Nothing engine-side touches shard memory:
// update batches are encoded as kUpdateBatch payloads, snapshots
// come back as serialized kSketchState frames and are reconstructed
// through the registry, and summaries are request/response frames. Epochs
// need no request of their own: every reply that can move a shard's epoch
// (apply acks, flush, import, heartbeat, hello and snapshot replies)
// carries it, the backend keeps the highest one seen per shard, and
// Epoch() is a local atomic read — a merge-cache hit sends no frame.
//
// In the white-box model a remote shard keeps no secret (the adversary
// sees its whole state anyway); the backend's job is to prove that the
// Client facade, merge cache, and snapshot/epoch protocol survive a
// serialized wire boundary. For the state-mergeable families (ams_f2,
// sis_l0, rank_decision, misra_gries) a tcp engine answers
// BIT-IDENTICALLY to an in-process engine over the same submissions,
// because the host applies the same batches in the same order with the
// same derived shard seeds, and the wire format round-trips state exactly.
// Sampling heavy hitters cross answer-level, like their in-process
// snapshot clones.
//
// With no endpoints configured the backend self-hosts: one in-process
// TcpShardHost per shard on an ephemeral 127.0.0.1 port — the full
// handshake/resync stack with no external daemon, which is how tests, CI,
// and the "mixed" placement run it. With endpoints it dials external
// engine_shardd daemons; the protocol is the same either way.
//
// Per shard, the backend holds two client channels (data for ApplyBatch
// and handoff imports, control for queries and probes), each guarded by
// its own mutex so concurrent query threads serialize per shard without
// blocking ingest. A shard whose last call failed reports Unavailable from
// Epoch() too, until a later call gets through, so the engine's
// stale-serving supervision sees the death at the first failed call rather
// than on a per-query probe.

#ifndef WBS_ENGINE_REMOTE_BACKEND_H_
#define WBS_ENGINE_REMOTE_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/backend.h"

namespace wbs::engine {

/// Reconnection policy of the TCP dialer. A channel that breaks is redialed
/// WITHIN the failing call's deadline: connect, kReqHello handshake, resync
/// from the host's last_applied_seq, retransmit. Only a peer that stays
/// unreachable past `op_deadline_ms` (or actively refuses — its listener is
/// gone) surfaces Unavailable and feeds the supervision/re-home path.
struct TcpDialerOptions {
  int connect_timeout_ms = 1000;  ///< per connect() attempt
  int op_deadline_ms = 1000;      ///< whole-call budget incl. redials
  int backoff_initial_ms = 1;     ///< doubles per failed redial...
  int backoff_max_ms = 50;        ///< ...up to this cap
};

struct TcpBackendOptions {
  /// Daemon endpoints ("host:port"); shard i is homed on endpoint
  /// i % endpoints.size(). EMPTY = self-host: the backend starts one
  /// in-process TcpShardHost per shard on an ephemeral 127.0.0.1 port and
  /// dials it over real sockets — the full handshake/resync stack with no
  /// external daemon, which is how tests and CI run it.
  std::vector<std::string> endpoints;
  TcpDialerOptions dialer;
};

/// Factory for the TCP remote backend (TcpRemoteBackend): each shard lives
/// behind a TcpShardHost session (tcp_transport.h), created via the
/// kReqHello spec on first contact. Plug into IngestorOptions::backend (or
/// a MoveShard / recovery target).
BackendFactory TcpBackendFactory(TcpBackendOptions options = {});

/// Resolves a backend factory by name: "inprocess" (or ""), "mixed"
/// (alternating in-process / self-hosted tcp placement via
/// CompositeBackendFactory), "tcp" (self-hosted TCP sockets), and
/// "tcp:HOST:PORT[,HOST:PORT...]" (external engine_shardd daemons).
/// Unknown names and malformed endpoint lists (an empty or portless entry)
/// are InvalidArgument — this backs --backend= flags and the
/// WBS_ENGINE_BACKEND environment selection in tests and CI.
Result<BackendFactory> BackendFactoryByName(const std::string& name);

}  // namespace wbs::engine

#endif  // WBS_ENGINE_REMOTE_BACKEND_H_
