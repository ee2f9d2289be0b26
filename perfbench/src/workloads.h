// The benchmark's three deployment workloads and the per-iteration call
// counts their shapes imply. Why each workload exists is in README.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"

namespace perfbench {

/// Learning tasks one run cycles its pairs through. Seed s runs the tasks
/// whose DeploymentConfig seeds are s*kTasks ... s*kTasks + kTasks - 1: the
/// seed synthesizes the dataset, so accuracy differs from task to task, and
/// averaging several tasks keeps one run's figure from hinging on one draw.
inline constexpr std::size_t kTasks = 4;

struct Workload {
  std::string name;
  /// Deployment of task 0; `iterations` is set per run.
  garfield::core::DeploymentConfig config;
  /// Iterations of the steady-state run (paired with a 1-iteration run).
  std::size_t iterations = 0;
  /// Test accuracy the steady-state run must reach to count as correct.
  double accuracy_floor = 0.0;
  /// Synchronous deployment: final parameters are bitwise repeatable.
  bool sync = false;
  [[nodiscard]] bool tcp() const { return config.transport == "tcp"; }
  /// Deployment of task j (0 <= j < kTasks).
  [[nodiscard]] garfield::core::DeploymentConfig task(std::size_t j) const {
    garfield::core::DeploymentConfig c = config;
    c.seed += j;
    return c;
  }
};

[[nodiscard]] std::vector<std::string> workload_names();
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// Cluster-wide calls per steady-state iteration, derived from the
/// deployment shape (server/worker/peer counts, quorums, codec). On tcp the
/// TrainResult counters only cover rank 0's process, so these formulas —
/// not those counters — are what the residual CPU subtracts.
struct ShapeCounts {
  std::size_t grad_q = 0;   ///< inputs per gradient-GAR call
  std::size_t grad_f = 0;
  std::size_t model_q = 0;  ///< inputs per model-GAR call
  std::size_t model_f = 0;
  double optimizer_steps = 0;
  double gradient_gar_calls = 0;
  double model_gar_calls = 0;
  double worker_crafts = 0;
  double server_crafts = 0;
  double encode_gradient = 0;
  double encode_state = 0;
  double decode_gradient = 0;
  double decode_state = 0;
  /// d-float frames crossing a process boundary (tcp only); each costs one
  /// wire encode at the sender and one decode at the receiver.
  double wire_frames = 0;
};

[[nodiscard]] ShapeCounts shape_counts(
    const garfield::core::DeploymentConfig& config);

/// The same deployment with every GAR and attack spec renamed to a
/// "traced_" wrapper registered in the GAR/attack registries. The wrappers
/// delegate to the real rule or attack and record one span per call, so the
/// traced run's arithmetic — and its final parameters — are unchanged.
/// In-process deployments only: tcp ranks are separate processes that
/// never see these registrations.
[[nodiscard]] garfield::core::DeploymentConfig traced_config(
    const garfield::core::DeploymentConfig& config);

}  // namespace perfbench
