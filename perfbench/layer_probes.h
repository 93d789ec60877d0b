// Copyright (c) wbstream authors. Licensed under the MIT license.
//
// Probes that call single layers of the engine through their public
// functions, outside the sharded pipeline: the builtin sketch families
// (registry sketch, single-threaded ApplyBatch) and the sketch wire format
// (SerializeSketch / DeserializeSketch). The same single-sketch replay is
// the correctness gate's reference.

#ifndef WBS_PERFBENCH_LAYER_PROBES_H_
#define WBS_PERFBENCH_LAYER_PROBES_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/sketch.h"
#include "workloads.h"

namespace perfbench {

/// One sketch family's single-layer costs on a workload's input.
struct FamilyProbe {
  std::string family;
  double apply_ns = 0;      ///< per update, one single-threaded pool replay
  double space_bits = 0;    ///< SpaceBits() after that replay
  double serialize_us = 0;  ///< median SerializeSketch of the replayed state
  double deserialize_us = 0;
  double bytes = 0;         ///< serialized frame size
};

/// Replays one pass of the pool into a fresh registry sketch of `family`
/// (timed), then times the wire round trip of the resulting state.
wbs::Result<FamilyProbe> ProbeFamily(const std::string& family,
                                     const wbs::engine::SketchConfig& cfg,
                                     const Stream& stream);

/// The gate's reference for a LINEAR family: one registry sketch holding
/// stream batches [0, batches). One pool pass is replayed batch by batch and
/// merged in once per full pass (linear state is a sum, so this is the
/// state of feeding every batch in order), then the partial pass is fed.
wbs::Result<std::unique_ptr<wbs::engine::Sketch>> LinearReference(
    const std::string& family, const wbs::engine::SketchConfig& cfg,
    const Stream& stream, uint64_t batches);

}  // namespace perfbench

#endif  // WBS_PERFBENCH_LAYER_PROBES_H_
