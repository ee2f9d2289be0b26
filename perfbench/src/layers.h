// Per-layer replay: times calls into each module's public functions from
// the benchmark's own code, at the exact shapes one workload uses (model,
// batch, GAR quorum and dimension, codec, frame size). Each replayed call
// is one span, parented to a per-layer span.
#pragma once

#include <cstdint>
#include <string>

#include "workloads.h"

namespace perfbench {

/// Per-call figures of one replayed public function.
struct CallStats {
  std::size_t calls = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// Process CPU time of the whole replay loop divided by its calls —
  /// what one call costs the machine, parallel kernels included.
  double cpu_us_per_call = 0.0;
};

struct LayerReport {
  CallStats gradient;         ///< nn: Model::gradient on one batch
  CallStats optimizer_step;   ///< nn: SgdOptimizer::step over d floats
  CallStats gradient_rule;    ///< gars: the gradient GAR at (q, d)
  CallStats model_rule;       ///< gars: the model GAR at (q, d)
  CallStats worker_craft;     ///< attacks: the worker attack at d
  CallStats server_craft;     ///< attacks: the server attack at d
  CallStats encode_gradient;  ///< codec
  CallStats encode_state;     ///< codec
  CallStats decode_gradient;  ///< codec
  CallStats decode_state;     ///< codec
  CallStats wire_encode;      ///< wire: encode + frame of a d-float frame
  CallStats wire_decode;      ///< wire: FrameDecoder + decode of that frame
  CallStats rpc_rtt;          ///< net: no-op Cluster call, in-process
  CallStats tcp_rtt_1;        ///< net: TcpTransport loopback echo, 1 float
  CallStats tcp_rtt_d;        ///< net: TcpTransport loopback echo, d floats
  double sim_predicted_its_per_sec = 0.0;
  std::size_t dimension = 0;
};

/// Replay every layer for `w`, spending roughly `budget_seconds` in total.
/// Spans are parented to `parent` when the tracer is enabled.
[[nodiscard]] LayerReport replay_layers(const Workload& w,
                                        std::uint64_t parent,
                                        double budget_seconds);

}  // namespace perfbench
