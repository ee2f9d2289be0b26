#include "core/round_plan.h"

namespace garfield::core {

RoundPlan round_plan(const DeploymentConfig& cfg) {
  const std::size_t nw = cfg.nw;
  const std::size_t nps = cfg.nps;
  RoundPlan plan;
  // Parameter-server deployments pull the worker span; synchronous pulls
  // wait for every worker, asynchronous ones for n - f.
  const std::size_t worker_q = cfg.asynchronous ? nw - cfg.fw : nw;
  plan.gradients = {nps, nps + nw, worker_q, false, cfg.gradient_gar,
                    cfg.fw, "worker"};
  switch (cfg.deployment) {
    case Deployment::kVanilla:
    case Deployment::kCrashTolerant:
      plan.drivers = cfg.deployment == Deployment::kVanilla ? 1 : nps;
      // Plain averaging, which tolerates no Byzantine input.
      plan.gradients.gar = "average";
      plan.gradients.f = 0;
      break;
    case Deployment::kSsmw:
      plan.drivers = 1;
      break;
    case Deployment::kMsmw: {
      const std::size_t model_q = cfg.asynchronous ? nps - cfg.fps : nps;
      plan.drivers = nps;
      plan.models = PullStage{0, nps, model_q - 1, true, cfg.model_gar,
                              cfg.fps, "server"};
      plan.short_quorum = ShortQuorum::kExchangeModels;
      plan.alignment_cohort = nps - cfg.fps;
      break;
    }
    case Deployment::kDecentralized: {
      // Listing 3 awaits n - f throughout, synchronous or not.
      const std::size_t q = nw - cfg.fw;
      plan.drivers = nw;
      plan.gradients = {0, nw, q, false, cfg.gradient_gar, cfg.fw, "peer"};
      plan.gossip_rounds = cfg.contraction_steps;
      plan.gossip = {0, nw, q - 1, true, cfg.gradient_gar, cfg.fw, "peer"};
      plan.models =
          PullStage{0, nw, q - 1, true, cfg.model_gar, cfg.fw, "peer"};
      plan.short_quorum = ShortQuorum::kPublishSkips;
      plan.alignment_cohort = nw - cfg.fw;
      break;
    }
  }
  return plan;
}

std::optional<std::size_t> reporter_at(
    const RoundPlan& plan, const net::NetworkConditions& conditions,
    std::uint64_t it) {
  for (std::size_t d = 0; d < plan.drivers; ++d) {
    if (!conditions.churn_down(d, it)) return d;
  }
  return std::nullopt;
}

}  // namespace garfield::core
