// Analytical cost model for the throughput experiments.
//
// Wall-clock on one container cannot reproduce a 24-node Grid5000 cluster,
// so the throughput figures are regenerated from a calibrated cost model
// (the analytic plane; README "Network conditions" describes how it shares
// one spec with the live cluster). The model composes, per training
// iteration, the same three components the paper's breakdown reports
// (Fig 7/16): computation, communication (incl. serialization) and robust
// aggregation. Constants are calibrated against the paper's reported
// anchors: ~1.6 s/iteration ResNet-50 gradient computation on the CPU
// cluster, 10 Gbps links, GPU ≈ one order of magnitude faster end-to-end,
// and the Fig 3 GAR micro-benchmark ordering.
#pragma once

#include <cstddef>
#include <string>

namespace garfield::sim {

/// Compute-device profile (the paper evaluates CPUs and GPUs).
struct DeviceProfile {
  std::string name;
  /// Gradient computation rate: parameter-sample units per second
  /// (time = d * batch / rate).
  double compute_rate = 0.0;
  /// GAR coordinate-operation rate (floats per second).
  double gar_rate = 0.0;
  /// Serialization/deserialization rate (floats per second). Models the
  /// TF-runtime <-> Python context switches of §4.1; GPUs pay it too since
  /// gRPC cannot send GPU-resident buffers (§4.4).
  double serialize_rate = 0.0;
  /// Fixed per-RPC overhead in seconds.
  double rpc_overhead = 0.0;
  /// Fixed per-iteration framework overhead (kernel launches, Python
  /// driver loop, optimizer bookkeeping). Dominates tiny models, which is
  /// why fault-tolerance slowdowns are invisible on MNIST_CNN and grow
  /// with model size before saturating (Fig 6/15).
  double iteration_overhead = 0.0;
};

[[nodiscard]] DeviceProfile cpu_profile();
[[nodiscard]] DeviceProfile gpu_profile();

/// Point-to-point link profile.
struct LinkProfile {
  double bandwidth_floats = 312.5e6;  ///< 10 Gbps / 4 bytes
  double latency = 100e-6;            ///< per-message one-way latency (s)
};

/// Grid5000 CPU cluster: 2 x 10 Gbps Ethernet (we model one NIC).
[[nodiscard]] LinkProfile cpu_link();
/// GPU cluster path: bonded NICs + nccl GPU-to-GPU collectives give a
/// ~4x effective transfer rate over the plain gRPC path (§4.2).
[[nodiscard]] LinkProfile gpu_link();

/// The slow edge class of a heterogeneous deployment
/// (net/conditions.h "hetero:slow_links=...,factor=F"): `factor` x the
/// latency at 1/factor the bandwidth of the base class. Both planes agree
/// on the factor; only the analytic plane needs the derated bandwidth.
[[nodiscard]] LinkProfile degraded(const LinkProfile& base, double factor);

/// C(n, k) saturating at a large cap (MDA's exponential term).
[[nodiscard]] double binomial(std::size_t n, std::size_t k);

/// Predicted aggregation time of one GAR call with n inputs of dimension d
/// on the given device. Implements the asymptotic shapes of §6.3:
/// Average/Median linear in n·d, (Multi-)Krum and Bulyan quadratic in n,
/// MDA quadratic + C(n,f) subset-search term, all linear in d.
[[nodiscard]] double gar_time(const std::string& gar, std::size_t n,
                              std::size_t f, std::size_t d,
                              const DeviceProfile& device);

}  // namespace garfield::sim
