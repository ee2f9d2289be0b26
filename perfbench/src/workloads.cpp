#include "workloads.h"

#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

#include "attacks/registry.h"
#include "gars/registry.h"
#include "net/codec.h"
#include "trace.h"

namespace perfbench {

namespace gc = garfield::core;
namespace gars = garfield::gars;
namespace attacks = garfield::attacks;

std::vector<std::string> workload_names() {
  return {"ssmw_cnn", "p2p_tcp", "msmw_byz"};
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  gc::DeploymentConfig& c = w.config;
  c.seed = seed * kTasks;
  c.batch_size = 16;
  c.eval_every = 0;  // one evaluation, at the end of the run
  if (name == "ssmw_cnn") {
    c.deployment = gc::Deployment::kSsmw;
    c.model = "mnist_cnn";
    c.nw = 8;
    c.fw = 1;
    c.nps = 1;
    c.gradient_gar = "multi_krum";
    w.iterations = 200;
    w.accuracy_floor = 0.5;
    w.sync = true;
  } else if (name == "p2p_tcp") {
    c.deployment = gc::Deployment::kDecentralized;
    c.model = "small_mlp";
    c.dataset_noise = 2.0F;
    c.nw = 4;
    c.fw = 1;
    c.gradient_gar = "median";
    c.model_gar = "median";
    c.transport = "tcp";
    c.pool_threads = 1;
    c.codec = "none";
    w.iterations = 200;
    w.accuracy_floor = 0.5;
    w.sync = false;  // fastest-q quorums: the winning peers vary run to run
  } else if (name == "msmw_byz") {
    c.deployment = gc::Deployment::kMsmw;
    c.model = "small_mlp";
    c.dataset_noise = 2.0F;
    c.nps = 3;
    c.fps = 1;
    c.nw = 8;
    c.fw = 1;
    c.gradient_gar = "multi_krum";
    c.model_gar = "median";
    c.worker_attack = "sign_flip";
    c.server_attack = "reversed";
    c.codec = "topk:k=0.01";
    w.iterations = 400;
    w.accuracy_floor = 0.5;
    w.sync = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  c.iterations = w.iterations;
  c.validate();
  return w;
}

ShapeCounts shape_counts(const gc::DeploymentConfig& c) {
  ShapeCounts s;
  const bool p2p = c.deployment == gc::Deployment::kDecentralized;
  const bool msmw = c.deployment == gc::Deployment::kMsmw;
  // Requesters of gradients (servers, or every peer) and their targets
  // (every worker, or every peer including itself).
  const double requesters = p2p ? double(c.nw) : double(c.nps);
  const double workers = double(c.nw);
  const double f_model = p2p ? double(c.fw) : double(c.fps);
  const double model_peers = p2p ? double(c.nw) : msmw ? double(c.nps) : 0.0;
  const double model_pulls =
      model_peers * (model_peers > 0 ? model_peers - 1 : 0);
  const double byz_workers = c.worker_attack.empty() ? 0.0 : double(c.fw);
  const std::string& server_plan =
      p2p && c.server_attack.empty() ? c.worker_attack : c.server_attack;
  const double byz_servers = server_plan.empty() ? 0.0 : f_model;

  s.grad_f = c.fw;
  s.grad_q = (p2p || c.asynchronous) ? c.nw - c.fw : c.nw;
  s.model_f = std::size_t(f_model);
  s.model_q = p2p ? c.nw - c.fw
              : msmw ? (c.asynchronous ? c.nps - c.fps : c.nps)
                     : c.nw;  // no model exchange: replayed at the worker shape
  s.optimizer_steps = requesters;
  s.gradient_gar_calls = requesters * double(1 + c.contraction_steps);
  s.model_gar_calls = model_peers;
  s.worker_crafts = byz_workers * requesters;
  s.server_crafts = byz_servers * (model_peers > 0 ? model_peers - 1 : 0);

  if (!garfield::net::CodecSpec::parse(c.codec).identity()) {
    // Workers encode one reply per requester (per-requester error
    // feedback); requesters encode their model argument once per
    // iteration; an honest published model is encoded once however many
    // peers pull it, a Byzantine one per request.
    s.encode_gradient = requesters * workers;
    s.encode_state = requesters + (model_peers - byz_servers) +
                     byz_servers * (model_peers > 0 ? model_peers - 1 : 0);
    s.decode_gradient = requesters * workers;
    s.decode_state = requesters * workers + model_pulls;
  }
  if (c.transport == "tcp") {
    // Gradient request (model argument) and reply, plus the model reply;
    // a peer's pull from itself never leaves its process.
    const double remote_pulls =
        p2p ? requesters * (workers - 1) : requesters * workers;
    s.wire_frames = 2 * remote_pulls + model_pulls;
  }
  return s;
}

namespace {

constexpr const char* kTracedPrefix = "traced_";

/// GAR wrapper: one span per aggregate_into, attached to the traced run.
class TracedGar final : public gars::Gar {
 public:
  TracedGar(gars::GarPtr inner, std::string span_name)
      : Gar(inner->n(), inner->f()),
        inner_(std::move(inner)),
        span_name_(std::move(span_name)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 protected:
  void do_aggregate(std::span<const gars::FlatVector> inputs,
                    gars::AggregationContext& ctx,
                    gars::FlatVector& out) const override {
    const CurrentRun run = current_run();
    const ScopedSpan span(span_name_, "gars", run.span, run.run);
    inner_->aggregate_into(inputs, ctx, out);
  }

 private:
  gars::GarPtr inner_;
  std::string span_name_;
};

/// Attack wrapper: one span per craft, attached to the traced run.
class TracedAttack final : public attacks::Attack {
 public:
  TracedAttack(attacks::AttackPtr inner, std::string span_name)
      : inner_(std::move(inner)), span_name_(std::move(span_name)) {}

  std::optional<attacks::FlatVector> craft(
      const attacks::FlatVector& honest,
      attacks::AttackContext& ctx) override {
    const CurrentRun run = current_run();
    const ScopedSpan span(span_name_, "attacks", run.span, run.run);
    return inner_->craft(honest, ctx);
  }
  [[nodiscard]] bool tampers_state_transfer() const override {
    return inner_->tampers_state_transfer();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  attacks::AttackPtr inner_;
  std::string span_name_;
};

/// Rename the rule of a single-spec string ("name[:options]") to its
/// traced wrapper "traced_<role>_<name>", registering the wrapper on first
/// use. `span_name` is the span every call of the wrapper records.
std::string wrap_gar(const std::string& spec, const std::string& role,
                     const std::string& span_name) {
  const std::string name = gars::parse_gar_spec(spec).name;
  const std::string traced = kTracedPrefix + role + "_" + name;
  if (gars::GarRegistry::instance().find(traced) == nullptr) {
    const gars::GarDescriptor& inner = gars::GarRegistry::instance().at(name);
    gars::GarDescriptor d;
    d.name = traced;
    d.min_n = inner.min_n;
    d.option_floor = inner.option_floor;
    d.factory = [factory = inner.factory, span_name](
                    std::size_t n, std::size_t f,
                    const gars::GarOptions& options) -> gars::GarPtr {
      return std::make_unique<TracedGar>(factory(n, f, options), span_name);
    };
    gars::GarRegistry::instance().add(std::move(d));
  }
  return traced + spec.substr(name.size());
}

std::string wrap_attack(const std::string& plan, const std::string& role,
                        const std::string& span_name) {
  if (plan.empty()) return plan;
  if (plan.find_first_of(";*") != std::string::npos) {
    throw std::invalid_argument("traced_config: only single-spec attack "
                                "plans are wrapped, got '" + plan + "'");
  }
  const std::string name = attacks::parse_attack_spec(plan).name;
  const std::string traced = kTracedPrefix + role + "_" + name;
  if (attacks::AttackRegistry::instance().find(traced) == nullptr) {
    const attacks::AttackDescriptor& inner =
        attacks::AttackRegistry::instance().at(name);
    attacks::AttackDescriptor d;
    d.name = traced;
    d.omniscient = inner.omniscient;
    d.factory = [factory = inner.factory, span_name](
                    const attacks::AttackOptions& options)
        -> attacks::AttackPtr {
      return std::make_unique<TracedAttack>(factory(options), span_name);
    };
    attacks::AttackRegistry::instance().add(std::move(d));
  }
  return traced + plan.substr(name.size());
}

}  // namespace

gc::DeploymentConfig traced_config(const gc::DeploymentConfig& config) {
  if (config.transport != "inproc") {
    throw std::invalid_argument(
        "traced_config: in-run wrappers need an in-process deployment");
  }
  gc::DeploymentConfig c = config;
  c.gradient_gar =
      wrap_gar(config.gradient_gar, "gradient", "gars.gradient_rule");
  c.model_gar = wrap_gar(config.model_gar, "model", "gars.model_rule");
  c.worker_attack = wrap_attack(config.worker_attack, "worker",
                                "attacks.worker_craft");
  c.server_attack = wrap_attack(config.server_attack, "server",
                                "attacks.server_craft");
  c.validate();
  return c;
}

}  // namespace perfbench
