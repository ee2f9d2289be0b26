// One deployment as data: which ranks drive the round loop, and what each
// pull stage of an iteration pulls from, awaits and aggregates.
//
// The paper's Listings 1-3 share one skeleton — pull gradients with a
// quorum, apply a GAR, publish, optionally pull and apply a GAR again —
// and a RoundPlan is that skeleton filled in for one deployment. It is
// built once from the config and read by the live round loop
// (core/trainer.cpp), by DeploymentConfig::validate() (each stage's GAR
// precondition at its input count) and by the analytic simulator
// (sim/deployment_sim.cpp), so the planes cannot disagree on a quorum or a
// rule. Vanilla and crash-tolerant are SSMW plans with plain averaging,
// driven by one replica and by nps replicas respectively.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "core/config.h"
#include "net/conditions.h"

namespace garfield::core {

/// One pull-and-aggregate stage. Node ids follow the trainer's layout:
/// parameter-server deployments place servers at [0, nps) and workers at
/// [nps, nps + nw); decentralized peers occupy [0, nw).
struct PullStage {
  std::size_t lo = 0;  ///< candidate responders [lo, hi)
  std::size_t hi = 0;
  std::size_t q = 0;   ///< replies awaited from the span
  /// The puller's own state joins the replies (model exchange, gossip);
  /// the span then contains the puller, which never awaits itself.
  bool with_own = false;
  std::string gar;     ///< GAR spec (gars/registry.h grammar)
  std::size_t f = 0;   ///< Byzantine inputs the rule tolerates
  const char* cohort = "";  ///< "worker" | "server" | "peer", for messages

  /// GAR inputs when the quorum is met.
  [[nodiscard]] std::size_t inputs() const { return q + (with_own ? 1 : 0); }
};

/// What a driver does when its gradient pull returns fewer replies than
/// the rule's floor.
enum class ShortQuorum {
  kSkipRound,       ///< vanilla, crash-tolerant, SSMW: no update, no report
  kExchangeModels,  ///< MSMW: skip the gradient step, still exchange models
  kPublishSkips,    ///< decentralized: publish skip markers for every gossip
                    ///< round plus the unchanged model, then skip the round
};

struct RoundPlan {
  /// Ranks [0, drivers) run the round loop; the other nodes only serve.
  std::size_t drivers = 0;
  PullStage gradients;
  /// contract() rounds (decentralized), each a pull over `gossip`.
  std::size_t gossip_rounds = 0;
  PullStage gossip;
  /// Replica/peer model exchange closing the iteration (MSMW,
  /// decentralized).
  std::optional<PullStage> models;
  ShortQuorum short_quorum = ShortQuorum::kSkipRound;
  /// Correct replicas the Table-2 alignment probe compares (0 = none).
  std::size_t alignment_cohort = 0;
};

[[nodiscard]] RoundPlan round_plan(const DeploymentConfig& cfg);

/// The reporting replica at iteration `it`: the lowest-id driver the churn
/// schedule keeps up. Only the reporter evaluates, checkpoints and records
/// its gradient quorum, and the last iteration's reporter supplies
/// TrainResult::final_parameters. Nullopt when every driver is down.
[[nodiscard]] std::optional<std::size_t> reporter_at(
    const RoundPlan& plan, const net::NetworkConditions& conditions,
    std::uint64_t it);

}  // namespace garfield::core
