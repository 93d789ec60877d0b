// Copyright (c) wbstream authors. Licensed under the MIT license.

#include "layer_probes.h"

#include <utility>

#include "engine/backend.h"
#include "engine/registry.h"
#include "stats.h"

namespace perfbench {
namespace {

using wbs::Result;
using wbs::Status;
using wbs::engine::Sketch;
using wbs::engine::SketchConfig;
using wbs::engine::SketchRegistry;
using wbs::engine::UpdateBatch;

Status Replay(Sketch* sketch, const Stream& stream, uint64_t first,
              uint64_t end) {
  for (uint64_t b = first; b < end; ++b) {
    UpdateBatch batch;
    batch.data = stream.Batch(b);
    batch.size = kBatchUpdates;
    if (Status s = sketch->ApplyBatch(batch); !s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace

Result<FamilyProbe> ProbeFamily(const std::string& family,
                                const SketchConfig& cfg, const Stream& stream) {
  auto sketch = SketchRegistry::Global().Create(family, cfg);
  if (!sketch.ok()) return sketch.status();
  FamilyProbe probe;
  probe.family = family;
  const int64_t t0 = NowNs();
  if (Status s = Replay(sketch.value().get(), stream, 0, stream.pool_batches);
      !s.ok()) {
    return s;
  }
  probe.apply_ns = double(NowNs() - t0) / double(stream.pool.size());
  probe.space_bits = double(sketch.value()->SpaceBits());

  // At least 9 round trips and at least 20 ms of them, medians reported.
  std::vector<uint64_t> ser_ns, de_ns;
  int64_t spent = 0;
  while (ser_ns.size() < 9 || spent < 20'000'000) {
    const int64_t a = NowNs();
    auto frame = wbs::engine::SerializeSketch(*sketch.value());
    const int64_t b = NowNs();
    if (!frame.ok()) return frame.status();
    auto restored =
        wbs::engine::DeserializeSketch(family, cfg, frame.value());
    const int64_t c = NowNs();
    if (!restored.ok()) return restored.status();
    ser_ns.push_back(uint64_t(b - a));
    de_ns.push_back(uint64_t(c - b));
    probe.bytes = double(frame.value().size());
    spent += c - a;
  }
  probe.serialize_us = QuantileNs(ser_ns, 0.5) / 1e3;
  probe.deserialize_us = QuantileNs(de_ns, 0.5) / 1e3;
  return probe;
}

Result<std::unique_ptr<Sketch>> LinearReference(const std::string& family,
                                                const SketchConfig& cfg,
                                                const Stream& stream,
                                                uint64_t batches) {
  auto ref = SketchRegistry::Global().Create(family, cfg);
  if (!ref.ok()) return ref.status();
  const uint64_t passes = batches / stream.pool_batches;
  if (passes > 0) {
    auto pass = SketchRegistry::Global().Create(family, cfg);
    if (!pass.ok()) return pass.status();
    if (Status s = Replay(pass.value().get(), stream, 0, stream.pool_batches);
        !s.ok()) {
      return s;
    }
    for (uint64_t p = 0; p < passes; ++p) {
      if (Status s = ref.value()->MergeFrom(*pass.value()); !s.ok()) return s;
    }
  }
  if (Status s = Replay(ref.value().get(), stream, 0,
                        batches % stream.pool_batches);
      !s.ok()) {
    return s;
  }
  return std::move(ref).value();
}

}  // namespace perfbench
