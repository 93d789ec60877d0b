// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// The pluggable ShardBackend boundary:
//
//   * InProcessBackend vs the tcp remote backend equivalence — the same
//     single-producer submissions must produce BIT-IDENTICAL answers for
//     the state-mergeable families (and, in this controlled setting, for
//     the sampling families too: the host replays the identical per-shard
//     substreams with identical derived seeds) on Zipf / planted / churn
//     workloads, plus equal per-shard summaries and space accounting;
//   * backend name resolution (BackendFactoryByName), which backs the
//     WBS_ENGINE_BACKEND selection and --backend= flags;
//   * quiescence-free typed queries racing producers over the tcp wire
//     (the TSan target for the socket path);
//   * ticket-aware flow control: the max_inflight_bytes valve blocks
//     Submit and fails TrySubmit fast, deterministically pinned with a
//     gate sketch that parks the worker inside ApplyBatch.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/backend.h"
#include "engine/client.h"
#include "engine/metrics.h"
#include "engine/registry.h"
#include "engine/remote_backend.h"
#include "stream/workload.h"

#include "engine_test_util.h"

namespace wbs::engine {
namespace {

SketchConfig TestConfig(uint64_t universe, uint64_t seed) {
  return SketchConfig{}.WithUniverse(universe).WithSeed(seed);
}

stream::TurnstileStream ZipfTurnstile(uint64_t universe, size_t n,
                                      uint64_t seed) {
  wbs::RandomTape tape(seed);
  tape.set_logging(false);
  auto items = stream::ZipfStream(universe, n, 1.2, &tape);
  stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});
  return s;
}

// ------------------------------------------------- cross-backend equality --

TEST(BackendEquivalenceTest, ZipfAllFamilies) {
  const uint64_t universe = 1 << 12;
  CheckBackendAgreesWithInProcess(
      TcpBackendFactory(), "tcp", ZipfTurnstile(universe, 30000, 61),
      TestConfig(universe, 7),
      {"misra_gries", "ams_f2", "sis_l0", "robust_hh", "crhf_hh"}, 4, 2);
}

TEST(BackendEquivalenceTest, PlantedHeavyHitters) {
  const uint64_t universe = 1 << 16;
  wbs::RandomTape tape(62);
  tape.set_logging(false);
  std::vector<uint64_t> planted;
  auto items = stream::PlantedHeavyHitterStream(universe, 30000, 3, 0.2,
                                                &tape, &planted);
  stream::TurnstileStream s;
  s.reserve(items.size());
  for (const auto& u : items) s.push_back({u.item, 1});
  CheckBackendAgreesWithInProcess(TcpBackendFactory(), "tcp", s,
                                  TestConfig(universe, 8),
                                  {"misra_gries", "robust_hh", "crhf_hh"}, 4,
                                  2);
}

TEST(BackendEquivalenceTest, ChurnLinearFamilies) {
  const uint64_t universe = 1 << 12;
  wbs::RandomTape tape(63);
  tape.set_logging(false);
  auto s = stream::InsertDeleteChurnStream(universe, 120, 2500, &tape);
  CheckBackendAgreesWithInProcess(TcpBackendFactory(), "tcp", s,
                                  TestConfig(universe, 9),
                                  {"ams_f2", "sis_l0"}, 4, 2);
}

TEST(BackendEquivalenceTest, RankDecision) {
  SketchConfig cfg = TestConfig(1, 17);
  cfg.rank.n = 32;
  cfg.rank.k = 8;
  stream::TurnstileStream diag;
  for (size_t i = 0; i < 8; ++i) {
    diag.push_back({uint64_t(i) * cfg.rank.n + i, 1});
  }
  CheckBackendAgreesWithInProcess(TcpBackendFactory(), "tcp", diag, cfg,
                                  {"rank_decision"}, 2, 1);
}

TEST(BackendEquivalenceTest, InlineModeAndQueriesBeforeAnySubmit) {
  const std::vector<std::string> sketches = {"ams_f2", "misra_gries"};
  const SketchConfig cfg = TestConfig(1 << 10, 19);
  // Queries on an empty tcp engine must answer like an empty local one
  // (all shards unpublished), not error.
  auto tcp = MakeClient(sketches, cfg, 2, 0, TcpBackendFactory());
  auto inprocess =
      MakeClient(sketches, cfg, 2, 0, InProcessBackendFactory());
  auto f2_tcp = tcp->Handle("ams_f2").value();
  auto f2_in = inprocess->Handle("ams_f2").value();
  auto got = tcp->QueryScalar(f2_tcp);
  auto want = inprocess->QueryScalar(f2_in);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(got.value().value, want.value().value);
  EXPECT_EQ(got.value().updates, want.value().updates);

  // Inline mode (num_threads == 0) drives the tcp data channel from the
  // submitting thread; answers still line up.
  auto s = ZipfTurnstile(1 << 10, 5000, 64);
  ASSERT_TRUE(Replay(tcp.get(), s).ok());
  ASSERT_TRUE(Replay(inprocess.get(), s).ok());
  ASSERT_TRUE(tcp->Flush().ok());
  ASSERT_TRUE(inprocess->Flush().ok());
  got = tcp->QueryScalar(f2_tcp);
  want = inprocess->QueryScalar(f2_in);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(got.value().value, want.value().value);
  EXPECT_EQ(got.value().updates, uint64_t(s.size()));
  ASSERT_TRUE(tcp->Finish().ok());
  ASSERT_TRUE(inprocess->Finish().ok());
}

// The names WBS_ENGINE_BACKEND and --backend= accept are exactly
// inprocess | mixed | tcp | tcp:HOST:PORT,...; anything else (an unknown
// name, an empty or portless endpoint in a tcp: list) fails loudly
// instead of silently selecting a default.
TEST(BackendNameTest, ResolvesKnownNamesAndRejectsTheRest) {
  for (const char* name :
       {"", "inprocess", "mixed", "tcp", "tcp:127.0.0.1:7000",
        "tcp:127.0.0.1:7000,127.0.0.1:7001"}) {
    auto factory = BackendFactoryByName(name);
    EXPECT_TRUE(factory.ok()) << '"' << name << "\": "
                              << factory.status().ToString();
  }
  for (const char* name : {"loopback", "tcp:", "tcp:h:1,", "tcp:h", "udp"}) {
    auto factory = BackendFactoryByName(name);
    ASSERT_FALSE(factory.ok()) << '"' << name << '"';
    EXPECT_EQ(factory.status().code(), Status::Code::kInvalidArgument)
        << '"' << name << "\": " << factory.status().ToString();
  }
}

// Producers racing a typed-query thread across the tcp wire: no errors,
// and the final answer matches a quiescent in-process reference (TSan
// hunts the socket framing and host dispatch here).
TEST(BackendEquivalenceTest, TcpQueriesRaceProducersSafely) {
  const uint64_t universe = 1 << 12;
  auto s = ZipfTurnstile(universe, 40000, 65);
  const SketchConfig cfg = TestConfig(universe, 101);
  auto client =
      MakeClient({"ams_f2", "sis_l0"}, cfg, 4, 2, TcpBackendFactory());
  auto f2 = client->Handle("ams_f2").value();
  auto l0 = client->Handle("sis_l0").value();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> query_errors{0};
  std::thread querier([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (!client->QueryScalar(f2).ok()) ++query_errors;
      if (!client->QueryScalar(l0).ok()) ++query_errors;
    }
  });
  std::vector<std::thread> producers;
  for (size_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      const size_t batch = 512;
      for (size_t off = p * batch; off < s.size(); off += 2 * batch) {
        auto t = client->Submit(s.data() + off,
                                std::min(batch, s.size() - off));
        ASSERT_TRUE(t.ok());
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(client->Flush().ok());
  stop.store(true, std::memory_order_relaxed);
  querier.join();
  ASSERT_TRUE(client->Finish().ok());
  EXPECT_EQ(query_errors.load(), 0u);

  auto reference =
      MakeClient({"ams_f2", "sis_l0"}, cfg, 4, 0, InProcessBackendFactory());
  ASSERT_TRUE(Replay(reference.get(), s).ok());
  ASSERT_TRUE(reference->Finish().ok());
  auto got = client->QueryScalar(f2);
  auto want = reference->QueryScalar(reference->Handle("ams_f2").value());
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(got.value().value, want.value().value);
  EXPECT_EQ(got.value().updates, uint64_t(s.size()));
}

// ------------------------------------------- remote epochs ride on replies --

/// An unsupervised client (no heartbeats, so no background frames) over
/// `backend`, publishing every `snapshot_min_updates` updates per shard.
std::unique_ptr<Client> MakeQuietClient(BackendFactory backend,
                                        const SketchConfig& cfg,
                                        size_t snapshot_min_updates) {
  ClientOptions opts;
  opts.ingest.num_shards = 4;
  opts.ingest.num_threads = 2;
  opts.ingest.sketches = {"ams_f2", "sis_l0"};
  opts.ingest.config = cfg;
  opts.ingest.snapshot_min_updates = snapshot_min_updates;
  opts.ingest.backend = std::move(backend);
  auto client = Client::Create(opts);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

/// A clean merge-cache hit reads the shard epochs the acks already
/// delivered: 1000 hits send exactly as many frames as zero hits do (the
/// Metrics probe's own kReqMetrics is the only traffic between samples).
void CheckCacheHitsSendNoFrames(BackendFactory backend) {
  const uint64_t universe = 1 << 12;
  auto client = MakeQuietClient(std::move(backend), TestConfig(universe, 41),
                                /*snapshot_min_updates=*/1024);
  auto s = ZipfTurnstile(universe, 20000, 42);
  ASSERT_TRUE(Replay(client.get(), s, 1024, ReplayChurn::kDisabled).ok());
  ASSERT_TRUE(client->Flush().ok());
  auto f2 = client->Handle("ams_f2").value();
  auto warm = client->QueryScalar(f2);  // folds every shard once
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  auto frames_out = [](const MetricsSnapshot& snap, size_t shard) {
    return snap.Value("engine.shard." + std::to_string(shard) +
                      ".wire.frames_out_total");
  };
  const MetricsSnapshot m0 = client->Metrics();
  const MetricsSnapshot m1 = client->Metrics();  // across zero queries
  for (int q = 0; q < 1000; ++q) {
    auto hit = client->QueryScalar(f2);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    ASSERT_EQ(hit.value().value, warm.value().value);
    ASSERT_EQ(hit.value().updates, uint64_t(s.size()));
    ASSERT_FALSE(hit.value().stale);
  }
  const MetricsSnapshot m2 = client->Metrics();  // across 1000 queries
  for (size_t shard = 0; shard < 4; ++shard) {
    ASSERT_NE(m0.Find("engine.shard." + std::to_string(shard) +
                      ".wire.frames_out_total"),
              nullptr)
        << shard;
    EXPECT_EQ(frames_out(m2, shard) - frames_out(m1, shard),
              frames_out(m1, shard) - frames_out(m0, shard))
        << "shard " << shard;
  }
  EXPECT_GE(m2.Value("engine.sketch.ams_f2.merge_cache.hits_total"),
            m1.Value("engine.sketch.ams_f2.merge_cache.hits_total") + 1000);
  ASSERT_TRUE(client->Finish().ok());
}

TEST(RemoteEpochTest, TcpCacheHitsSendNoFrames) {
  CheckCacheHitsSendNoFrames(TcpBackendFactory());
}

/// Every per-shard batch publishes (snapshot_min_updates = 0), so once a
/// ticket completes, the very next query must fold every update submitted
/// so far — with no Flush. This pins "the ack's epoch is recorded before
/// ApplyBatch returns": a ticket that completed ahead of its epoch would
/// let the dirty scan miss the shard and serve the previous fold.
void CheckAckEpochIsVisibleToNextQuery(const std::string& backend) {
  auto factory = BackendFactoryByName(backend);
  ASSERT_TRUE(factory.ok()) << factory.status().ToString();
  const uint64_t universe = 1 << 12;
  auto client = MakeQuietClient(std::move(factory).value(),
                                TestConfig(universe, 43),
                                /*snapshot_min_updates=*/0);
  auto s = ZipfTurnstile(universe, 12000, 44);
  auto f2 = client->Handle("ams_f2").value();
  const size_t batch = 1000;
  for (size_t off = 0; off < s.size(); off += batch) {
    const size_t n = std::min(batch, s.size() - off);
    auto ticket = client->Submit(s.data() + off, n);
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    for (;;) {
      auto done = client->TryWait(ticket.value());
      ASSERT_TRUE(done.ok()) << done.status().ToString();
      if (done.value()) break;
      std::this_thread::yield();
    }
    auto got = client->QueryScalar(f2);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value().updates, uint64_t(off + n))
        << backend << " after " << off + n << " updates";
  }
  ASSERT_TRUE(client->Finish().ok());
}

TEST(RemoteEpochTest, TcpAckEpochIsVisibleToNextQuery) {
  CheckAckEpochIsVisibleToNextQuery("tcp");
}

TEST(RemoteEpochTest, MixedAckEpochIsVisibleToNextQuery) {
  CheckAckEpochIsVisibleToNextQuery("mixed");
}

// ---------------------------------------------------------- flow control --

/// A sketch whose ApplyBatch parks on a global gate — lets the tests hold a
/// worker inside the backend deterministically while the submit-side valves
/// fill up. Registered once under "gate_sketch".
struct GateControl {
  std::mutex mu;
  std::condition_variable cv;
  bool open = true;
  int waiting = 0;

  void Close() {
    std::lock_guard<std::mutex> lock(mu);
    open = false;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  /// Blocks until a worker is parked inside ApplyBatch.
  void AwaitWaiter() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return waiting > 0; });
  }
  void Pass() {
    std::unique_lock<std::mutex> lock(mu);
    ++waiting;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
    --waiting;
  }
};

GateControl& Gate() {
  static GateControl* gate = new GateControl();
  return *gate;
}

class GateSketch final : public Sketch {
 public:
  const std::string& name() const override {
    static const std::string kName = "gate_sketch";
    return kName;
  }
  Status Update(const stream::TurnstileUpdate& u) override {
    if (u.delta != 0) ++updates_;
    return Status::OK();
  }
  Status ApplyBatch(const UpdateBatch& batch) override {
    Gate().Pass();
    for (size_t i = 0; i < batch.size; ++i) {
      if (batch.data[i].delta != 0) ++updates_;
    }
    return Status::OK();
  }
  SketchSummary Summary() const override {
    SketchSummary s;
    s.sketch = name();
    s.has_scalar = true;
    s.scalar = double(updates_);
    s.updates = updates_;
    return s;
  }
  Status MergeFrom(const Sketch& other) override {
    const auto* o = dynamic_cast<const GateSketch*>(&other);
    if (o == nullptr) return Status::InvalidArgument("gate: type mismatch");
    updates_ += o->updates_;
    return Status::OK();
  }
  uint64_t SpaceBits() const override { return 64; }

 private:
  uint64_t updates_ = 0;
};

bool RegisterGateSketch() {
  static bool once = [] {
    Status s = SketchRegistry::Global().Register(
        "gate_sketch",
        [](const SketchConfig&) { return std::make_unique<GateSketch>(); },
        SketchFamily::kScalarEstimate);
    return s.ok();
  }();
  return once;
}

std::unique_ptr<Client> MakeGatedClient(size_t max_inflight_tickets,
                                        size_t max_inflight_bytes) {
  EXPECT_TRUE(RegisterGateSketch());
  ClientOptions opts;
  opts.ingest.num_shards = 1;
  opts.ingest.num_threads = 1;
  opts.ingest.sketches = {"gate_sketch"};
  opts.ingest.config = TestConfig(1 << 10, 3);
  opts.ingest.max_inflight_tickets = max_inflight_tickets;
  opts.ingest.max_inflight_bytes = max_inflight_bytes;
  // The gate parks the worker inside the backend, so keep this test on the
  // in-process backend regardless of WBS_ENGINE_BACKEND (under tcp the
  // park happens on a host thread; semantics hold but Finish() ordering
  // in the teardown path would depend on gate state).
  opts.ingest.backend = InProcessBackendFactory();
  auto client = Client::Create(opts);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

const stream::TurnstileStream& FourUpdates() {  // 64 valve bytes
  static const stream::TurnstileStream s{{1, 1}, {2, 1}, {3, 1}, {4, 1}};
  return s;
}

TEST(FlowControlTest, TrySubmitFailsFastWhenBytesValveIsFull) {
  auto client = MakeGatedClient(/*tickets=*/0, /*bytes=*/
                                FourUpdates().size() *
                                    sizeof(stream::TurnstileUpdate));
  Gate().Close();
  auto first = client->Submit(FourUpdates());  // fills the whole valve
  ASSERT_TRUE(first.ok());
  Gate().AwaitWaiter();  // worker parked inside ApplyBatch

  auto second = client->TrySubmit(FourUpdates());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), Status::Code::kResourceExhausted);

  Gate().Open();
  ASSERT_TRUE(client->Wait(first.value()).ok());
  // Valve drained: the same submission is admitted now.
  auto third = client->TrySubmit(FourUpdates());
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  ASSERT_TRUE(client->Finish().ok());
  auto handle = client->Handle("gate_sketch").value();
  EXPECT_EQ(client->QueryScalar(handle).value().updates,
            2 * FourUpdates().size());
}

TEST(FlowControlTest, TrySubmitFailsFastWhenTicketValveIsFull) {
  auto client = MakeGatedClient(/*tickets=*/1, /*bytes=*/0);
  Gate().Close();
  auto first = client->Submit(FourUpdates());
  ASSERT_TRUE(first.ok());
  Gate().AwaitWaiter();
  auto second = client->TrySubmit(FourUpdates());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), Status::Code::kResourceExhausted);
  Gate().Open();
  ASSERT_TRUE(client->Wait(first.value()).ok());
  ASSERT_TRUE(client->Finish().ok());
}

TEST(FlowControlTest, SubmitBlocksOnBytesValveUntilDrain) {
  auto client = MakeGatedClient(/*tickets=*/0, /*bytes=*/
                                FourUpdates().size() *
                                    sizeof(stream::TurnstileUpdate));
  Gate().Close();
  auto first = client->Submit(FourUpdates());
  ASSERT_TRUE(first.ok());
  Gate().AwaitWaiter();

  std::atomic<bool> second_returned{false};
  std::thread producer([&] {
    auto second = client->Submit(FourUpdates());  // must block on the valve
    EXPECT_TRUE(second.ok());
    second_returned.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_returned.load(std::memory_order_acquire))
      << "Submit did not block on a full bytes valve";

  Gate().Open();
  producer.join();
  EXPECT_TRUE(second_returned.load(std::memory_order_acquire));
  ASSERT_TRUE(client->Finish().ok());
  auto handle = client->Handle("gate_sketch").value();
  EXPECT_EQ(client->QueryScalar(handle).value().updates,
            2 * FourUpdates().size());
}

TEST(FlowControlTest, OversizedBatchIsAdmittedWhenIdle) {
  // A batch bigger than the whole valve must not deadlock: it is admitted
  // when nothing is in flight.
  auto client = MakeGatedClient(/*tickets=*/0, /*bytes=*/16);
  stream::TurnstileStream big;
  for (uint64_t i = 0; i < 64; ++i) big.push_back({i % 100, 1});  // 1 KiB
  auto t = client->Submit(big);  // gate open: applies and drains
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(client->Wait(t.value()).ok());
  ASSERT_TRUE(client->Finish().ok());
}

TEST(BackendContractTest, SerializationlessSketchFailsTcpQueries) {
  // A custom sketch without SerializeState/DeserializeState works on the
  // in-process backend but cannot cross a remote shard boundary: the
  // tcp engine must surface Unimplemented at snapshot-query time —
  // never a silent empty answer.
  EXPECT_TRUE(RegisterGateSketch());  // gate_sketch has no wire format
  ClientOptions opts;
  opts.ingest.num_shards = 2;
  opts.ingest.num_threads = 0;
  opts.ingest.sketches = {"gate_sketch"};
  opts.ingest.config = TestConfig(1 << 10, 11);
  opts.ingest.backend = TcpBackendFactory();
  auto client = Client::Create(opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value()->Submit(FourUpdates()).ok());
  ASSERT_TRUE(client.value()->Flush().ok());  // host-side publish is fine
  auto handle = client.value()->Handle("gate_sketch").value();
  auto scalar = client.value()->QueryScalar(handle);
  ASSERT_FALSE(scalar.ok());
  EXPECT_EQ(scalar.status().code(), Status::Code::kUnimplemented)
      << scalar.status().ToString();
  ASSERT_TRUE(client.value()->Finish().ok());
}

TEST(BackendContractTest, FailedMetricsPollIsCountedNotSilent) {
  // A placement whose control channel has died is skipped by the metrics
  // poll, but never silently: the failure is counted per shard
  // (engine.shard.<id>.metrics_errors_total) and the shard's health
  // surface keeps reporting.
  ClientOptions opts;
  opts.ingest.num_shards = 2;
  opts.ingest.num_threads = 1;
  opts.ingest.sketches = {"ams_f2"};
  opts.ingest.config = TestConfig(1 << 10, 23);
  opts.ingest.backend = TcpBackendFactory();
  // Supervision on so the dead placement degrades instead of poisoning
  // the pipeline at Finish(); no auto-recovery — the socket must STAY
  // closed for the polls below.
  opts.ingest.failover.heartbeat_interval_ms = 10;
  opts.ingest.failover.auto_recover = false;
  auto client = Client::Create(opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client.value()->Submit(FourUpdates()).ok());
  ASSERT_TRUE(client.value()->Flush().ok());
  MetricsSnapshot healthy = client.value()->Metrics();
  EXPECT_EQ(healthy.Value("engine.shard.1.metrics_errors_total"), 0u);

  ASSERT_TRUE(client.value()->InjectShardCrash(1).ok());
  MetricsSnapshot degraded = client.value()->Metrics();
  EXPECT_GE(degraded.Value("engine.shard.1.metrics_errors_total"), 1u);
  // The healthy shard's backend samples still flow; the crashed shard
  // keeps its health gauges even though its backend poll failed.
  EXPECT_NE(degraded.Find("engine.shard.0.wire.frames_out_total"), nullptr);
  EXPECT_NE(degraded.Find("engine.shard.1.health"), nullptr);
  ASSERT_TRUE(client.value()->Finish().ok());
}

TEST(FlowControlTest, InlineModeTrySubmitAppliesSynchronously) {
  EXPECT_TRUE(RegisterGateSketch());
  ClientOptions opts;
  opts.ingest.num_shards = 2;
  opts.ingest.num_threads = 0;
  opts.ingest.sketches = {"ams_f2"};
  opts.ingest.config = TestConfig(1 << 10, 5);
  opts.ingest.max_inflight_bytes = 16;
  auto client = Client::Create(opts);
  ASSERT_TRUE(client.ok());
  auto t = client.value()->TrySubmit(FourUpdates());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().seq, 0u);  // inline: applied before returning
  ASSERT_TRUE(client.value()->Finish().ok());
}

}  // namespace
}  // namespace wbs::engine
