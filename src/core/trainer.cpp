#include "core/trainer.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "attacks/registry.h"
#include "core/checkpoint.h"
#include "core/node_runner.h"
#include "core/server.h"
#include "core/train_loop.h"
#include "core/worker.h"
#include "gars/gar.h"
#include "gars/registry.h"
#include "net/codec.h"
#include "net/wire.h"
#include "nn/zoo.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace garfield::core {

namespace {

using detail::is_decentralized;
using detail::Runtime;
using net::Payload;
using tensor::Rng;

/// A stage's parsed GAR spec plus its resilience floor, resolved once per
/// loop instead of once per iteration. min_n is the option-aware floor
/// (gar_min_n over the parsed spec), so a quorum that satisfies the rule
/// but not its options (e.g. multi_krum:m=8 at a degraded q) skips the
/// round instead of throwing out of the loop thread.
struct GarPlan {
  gars::GarSpec spec;
  std::size_t f = 0;
  std::size_t min_n = 0;
};

GarPlan plan_gar(const PullStage& stage) {
  GarPlan plan;
  plan.spec = gars::parse_gar_spec(stage.gar);
  plan.f = stage.f;
  plan.min_n = gars::gar_min_n(plan.spec, stage.f);
  return plan;
}

/// Aggregate with a pre-parsed GAR spec sized to the actual reply count.
/// Garfield builds the rule per call because asynchronous collection can
/// legally return any q in [n-f, n]; the rule object is a few words, while
/// all heavy scratch (distance matrix, work vectors) lives in the caller's
/// AggregationContext and is reused across iterations.
Payload aggregate(const GarPlan& plan, const std::vector<Payload>& inputs,
                  gars::AggregationContext& ctx) {
  assert(!inputs.empty());
  const gars::GarPtr gar = gars::make_gar(plan.spec, inputs.size(), plan.f);
  Payload out;
  gar->aggregate_into(inputs, ctx, out);
  return out;
}

/// Per-rank attack specs for a Byzantine cohort: expand the configured plan
/// over the f declared attackers (validated at config time; re-expanding
/// here keeps the builders independent of validate() being called first).
/// Returns an empty vector when no attack is mounted.
std::vector<attacks::AttackSpec> attack_cohort(const std::string& plan,
                                               std::size_t f) {
  if (plan.empty() || f == 0) return {};
  return attacks::parse_attack_plan(plan).expand(f);
}

bool spec_is_omniscient(const attacks::AttackSpec& spec) {
  return attacks::AttackRegistry::instance().at(spec.name).omniscient;
}

data::Dataset make_dataset(const DeploymentConfig& cfg,
                           const tensor::Shape& input_shape,
                           std::size_t classes, std::size_t n, Rng& rng) {
  if (cfg.dataset == "teacher")
    return data::make_teacher_dataset(input_shape, classes, n, rng);
  return data::make_cluster_dataset(input_shape, classes, n, rng,
                                    cfg.dataset_noise);
}

/// Build cluster, servers and workers. Parameter-server deployments place
/// servers at [0, nps) and workers at [nps, nps + nw); decentralized peers
/// are a Server and a Worker sharing each id in [0, nw). The last f of
/// each cohort are Byzantine when an attack plan is configured.
void build_nodes(Runtime& rt) {
  const DeploymentConfig& cfg = rt.config;
  const bool p2p = is_decentralized(cfg);
  Rng root(cfg.seed);
  Rng data_rng = root.fork(2);
  Rng proto_rng = root.fork(1);  // same weights on every replica
  auto proto = nn::make_model(cfg.model, proto_rng);

  // Draw train and test from one generator call so they share the same
  // prototypes/teacher, then split.
  data::Dataset full =
      make_dataset(cfg, proto->input_shape(), proto->num_classes(),
                   cfg.train_size + cfg.test_size, data_rng);
  auto [train, test_set] = full.split(cfg.train_size);
  rt.test = test_set.all();
  std::vector<data::Dataset> shards =
      cfg.non_iid ? data::shard_by_class(train, cfg.nw)
                  : data::shard_iid(train, cfg.nw, data_rng);

  net::Cluster::Options net_opts;
  net_opts.nodes = cfg.total_nodes();
  net_opts.pool_threads = cfg.pool_threads;
  net_opts.conditions = net::NetworkConditions::parse(cfg.network);
  net_opts.seed = cfg.seed ^ (p2p ? 0xc2u : 0xc1u);
  net_opts.transport = rt.transport;  // null => in-process backend
  rt.conditions = net_opts.conditions;
  rt.cluster = std::make_unique<net::Cluster>(net_opts);

  const std::size_t servers = p2p ? cfg.nw : cfg.nps;
  const std::size_t fs = p2p ? cfg.fw : cfg.fps;
  const std::size_t worker_base = p2p ? 0 : cfg.nps;
  std::vector<net::NodeId> worker_ids;
  for (std::size_t w = 0; w < cfg.nw; ++w)
    worker_ids.push_back(worker_base + w);

  // A decentralized peer's server half falls back to the worker plan, so
  // a single worker_attack corrupts both halves; a server-only plan mounts
  // lying model/contraction replies on top of honest gradient service.
  const std::vector<attacks::AttackSpec> server_specs = attack_cohort(
      p2p && cfg.server_attack.empty() ? cfg.worker_attack : cfg.server_attack,
      fs);
  for (std::size_t s = 0; s < servers; ++s) {
    Rng replica_rng = root.fork(1);  // identical initial replicas
    nn::ModelPtr model = nn::make_model(cfg.model, replica_rng);
    std::vector<net::NodeId> peers;
    for (std::size_t other = 0; other < servers; ++other)
      if (other != s) peers.push_back(other);
    if (!server_specs.empty() && s >= servers - fs) {
      rt.servers.push_back(std::make_unique<ByzantineServer>(
          s, *rt.cluster, std::move(model), cfg.optimizer, worker_ids,
          std::move(peers),
          attacks::make_attack(server_specs[s - (servers - fs)]),
          root.fork(100 + s), servers, fs, cfg.model_gar, cfg.gradient_gar));
    } else {
      rt.servers.push_back(std::make_unique<Server>(
          s, *rt.cluster, std::move(model), cfg.optimizer, worker_ids,
          std::move(peers)));
    }
  }

  const std::vector<attacks::AttackSpec> worker_specs =
      attack_cohort(cfg.worker_attack, cfg.fw);
  for (std::size_t w = 0; w < cfg.nw; ++w) {
    Rng replica_rng = root.fork(1);
    nn::ModelPtr model = nn::make_model(cfg.model, replica_rng);
    const net::NodeId id = worker_base + w;
    if (!worker_specs.empty() && w >= cfg.nw - cfg.fw) {
      const attacks::AttackSpec& spec = worker_specs[w - (cfg.nw - cfg.fw)];
      rt.workers.push_back(std::make_unique<ByzantineWorker>(
          id, *rt.cluster, std::move(model), std::move(shards[w]),
          cfg.batch_size, root.fork(200 + w), attacks::make_attack(spec),
          cfg.worker_momentum, spec_is_omniscient(spec), cfg.nw, cfg.fw,
          cfg.gradient_gar, worker_base, worker_base + cfg.nw));
    } else {
      rt.workers.push_back(std::make_unique<Worker>(
          id, *rt.cluster, std::move(model), std::move(shards[w]),
          cfg.batch_size, root.fork(200 + w), cfg.worker_momentum));
    }
  }
  // Model exchanges are step-tagged: every replica publishes its snapshot
  // for iteration t and peers pull exactly t, so the model GAR aggregates
  // same-iteration states (deterministic) instead of whatever a racing
  // replica held. Asynchronous MSMW keeps untagged live-state serving —
  // its whole point is aggregating whatever is available *now* rather
  // than waiting on stragglers. Gossip is always step-tagged.
  if (rt.plan.models && (p2p || !cfg.asynchronous)) {
    for (auto& server : rt.servers) server->enable_step_tagged_serving();
  }
}

/// Byzantine-recovery state transfer — the live path the checkpoint
/// digest trailer exists for. The recovering replica pulls every live peer
/// server's sealed checkpoint blob over the get_checkpoint RPC, rejects
/// any blob that fails its whole-blob digest (a corrupt_recovery peer
/// tampering post-seal) or carries the wrong dimension, and adopts the
/// freshest surviving state: highest checkpoint iteration, ties broken
/// toward the lowest sender rank — a pure function of the verified reply
/// set, so the pick never depends on reply arrival order. Returns false
/// when no peer blob survives verification; the caller then falls back to
/// the durable local checkpoint.
bool recover_from_peers(Runtime& rt, Server& server, net::NodeId self,
                        std::uint64_t iteration) {
  const DeploymentConfig& cfg = rt.config;
  std::vector<net::NodeId> live;
  for (std::size_t p = 0; p < cfg.nps; ++p) {
    if (p != self && !rt.cluster->is_crashed(p)) live.push_back(p);
  }
  if (live.empty()) return false;
  std::vector<net::Reply> replies = rt.cluster->collect(
      self, live, kGetCheckpoint, iteration, nullptr, live.size(),
      std::chrono::seconds(10));
  const std::size_t dimension = server.parameters().size();
  std::optional<Checkpoint> best;
  net::NodeId best_from = 0;
  for (net::Reply& r : replies) {
    if (!r.payload) continue;
    Checkpoint ckpt;
    try {
      ckpt = decode_checkpoint_blob(
          unpack_bytes(*r.payload,
                       "state transfer from server " + std::to_string(r.from)),
          "state transfer from server " + std::to_string(r.from));
    } catch (const std::exception&) {
      // Digest (or carrier) verification rejected the blob before any
      // field was decoded: drop this peer's offer, keep the honest ones.
      rt.state_transfer_rejects.fetch_add(1);
      continue;
    }
    if (ckpt.parameters.size() != dimension) {
      rt.state_transfer_rejects.fetch_add(1);
      continue;
    }
    if (!best || ckpt.iteration > best->iteration ||
        (ckpt.iteration == best->iteration && r.from < best_from)) {
      best_from = r.from;
      best = std::move(ckpt);
    }
  }
  if (!best) return false;
  server.write_model(best->parameters);
  if (!best->velocity.empty()) {
    server.restore_optimizer_velocity(best->velocity);
  }
  rt.state_transfers.fetch_add(1);
  return true;
}

/// Drive the churn schedule at the top of a loop iteration and park this
/// node's loop while the schedule has it down. Returns the iteration the
/// loop should run (>= it, jumping over a crash window the node slept
/// through), or nullopt when the loop should exit instead: the run
/// aborted, the node never recovers inside the configured horizon, or the
/// recovery wait timed out (a schedule nobody left alive can drive).
std::optional<std::size_t> churn_gate(Runtime& rt, net::NodeId node,
                                      std::size_t it) {
  if (rt.abort.load()) return std::nullopt;
  if (!rt.conditions.has_churn()) return it;
  rt.cluster->advance_lifecycle(it);
  // The schedule decides whether this loop runs `it`, not the lifecycle
  // state: loops that are not in lockstep (crash-tolerant replicas) let
  // the fastest one apply a crash edge while a slower one still has
  // iterations to run before it.
  if (!rt.conditions.churn_down(node, it)) return it;
  const std::optional<std::uint64_t> up =
      rt.conditions.next_up_iteration(node, it);
  if (!up || *up >= rt.config.iterations) return std::nullopt;
  // Park until live peers drive the schedule past the up-edge. Waiting in
  // short slices keeps the park responsive to a concurrent abort, and the
  // overall deadline guards undrivable schedules.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!rt.abort.load()) {
    const std::optional<std::uint64_t> resumed =
        rt.cluster->wait_until_running(node, std::chrono::milliseconds(50));
    if (resumed) return std::size_t(*resumed);
    if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
  }
  return std::nullopt;
}

/// Record `reason` as the run's abort cause (first one wins) and stop
/// every loop at its next gate.
void abort_run(Runtime& rt, const std::string& reason) {
  {
    util::MutexLock lock(rt.abort_mutex);
    if (rt.abort_reason.empty()) rt.abort_reason = reason;
  }
  rt.abort.store(true);
}

/// The scheduled-availability floor check: at iteration `it` the churn
/// schedule must keep at least `gar.min_n` of the stage's span up, or the
/// GAR's (n, f) resilience bound is void. Checked against the *schedule*
/// rather than observed replies, so every loop trips it at the same
/// iteration and the whole run aborts deterministically.
bool churn_floor_holds(Runtime& rt, const GarPlan& gar,
                       const PullStage& stage, std::size_t it) {
  if (!rt.conditions.has_churn()) return true;
  const std::size_t down = rt.conditions.count_down(stage.lo, stage.hi, it);
  const std::size_t up = stage.hi - stage.lo - down;
  if (up >= gar.min_n) return true;
  abort_run(rt, "churn schedule drops " + std::string(stage.cohort) +
                    " availability to " + std::to_string(up) +
                    " node(s) at iteration " + std::to_string(it) +
                    ", below the '" + gar.spec.name +
                    "' GAR resilience floor min_n=" +
                    std::to_string(gar.min_n) +
                    " — aborting instead of aggregating below the (n, f) "
                    "bound");
  return false;
}

/// The reporter role needs a driver up at every iteration: with none, no
/// replica aggregates, evaluates or holds the run's result (the last one
/// up would be returned stale). Checked once against the schedule.
void require_a_reporter(Runtime& rt) {
  if (!rt.conditions.has_churn()) return;
  for (std::size_t it = 0; it < rt.config.iterations; ++it) {
    if (reporter_at(rt.plan, rt.conditions, it)) continue;
    abort_run(rt, "churn schedule leaves none of the " +
                      std::to_string(rt.plan.drivers) +
                      " driving replica(s) up at iteration " +
                      std::to_string(it) +
                      " — no replica would aggregate or report, aborting "
                      "instead of returning a dead replica's state");
    return;
  }
}

/// Persist the reporter's state on the configured cadence.
void maybe_checkpoint(Runtime& rt, const Server& server, std::size_t it) {
  const DeploymentConfig& cfg = rt.config;
  if (cfg.checkpoint_every == 0 || cfg.checkpoint_path.empty()) return;
  if ((it + 1) % cfg.checkpoint_every != 0 && it + 1 != cfg.iterations)
    return;
  util::MutexLock lock(rt.report_mutex);
  if (it + 1 <= rt.checkpointed_through) return;
  rt.checkpointed_through = it + 1;
  save_checkpoint(cfg.checkpoint_path,
                  Checkpoint{it + 1, server.parameters(),
                             server.optimizer_velocity()});
}

void maybe_eval(Runtime& rt, Server& server, std::size_t it) {
  const DeploymentConfig& cfg = rt.config;
  if (cfg.eval_every == 0) return;
  if (it % cfg.eval_every != 0 && it + 1 != cfg.iterations) return;
  EvalPoint p;
  p.iteration = it;
  p.accuracy = server.compute_accuracy(rt.test);
  p.loss = server.compute_loss(rt.test);
  util::MutexLock lock(rt.report_mutex);
  rt.curve.push_back(p);
}

/// Table-2 probe: pairwise parameter differences across correct replicas,
/// keep the two of largest norm, report the cosine of their angle.
void maybe_alignment(Runtime& rt, std::size_t correct_servers,
                     std::size_t it) {
  const DeploymentConfig& cfg = rt.config;
  if (cfg.alignment_every == 0 || it % cfg.alignment_every != 0) return;
  if (correct_servers < 3) return;  // need >= 2 difference vectors
  std::vector<Payload> params;
  params.reserve(correct_servers);
  for (std::size_t s = 0; s < correct_servers; ++s)
    params.push_back(rt.servers[s]->parameters());
  struct Diff {
    double norm;
    Payload vec;
  };
  std::vector<Diff> diffs;
  for (std::size_t a = 0; a < params.size(); ++a) {
    for (std::size_t b = a + 1; b < params.size(); ++b) {
      Payload d(params[a].size());
      tensor::subtract(params[a], params[b], d);
      diffs.push_back({tensor::norm(d), std::move(d)});
    }
  }
  std::partial_sort(diffs.begin(), diffs.begin() + 2, diffs.end(),
                    [](const Diff& x, const Diff& y) {
                      return x.norm > y.norm;
                    });
  AlignmentSample sample;
  sample.iteration = it;
  sample.max_diff1 = diffs[0].norm;
  sample.max_diff2 = diffs[1].norm;
  // A difference vector's sign is an artifact of pair ordering (a-b vs
  // b-a); alignment is about the angle between the *lines*, so report the
  // magnitude of the cosine.
  sample.cos_phi = std::abs(tensor::cosine(diffs[0].vec, diffs[1].vec));
  util::MutexLock lock(rt.alignment_mutex);
  rt.alignment.push_back(sample);
}

}  // namespace

namespace detail {

void build_runtime(Runtime& rt) {
  rt.plan = round_plan(rt.config);
  build_nodes(rt);
  // Install the wire codec on every endpoint before any loop starts: the
  // whole cluster speaks one codec (mixed-codec clusters are not a thing —
  // the spec is part of the deployment config every process shares).
  const net::CodecSpec codec = net::CodecSpec::parse(rt.config.codec);
  if (!codec.identity()) {
    for (auto& server : rt.servers) server->set_codec(codec);
    for (auto& worker : rt.workers) worker->set_codec(codec);
  }
  require_a_reporter(rt);
}

/// Wire the churn schedule's recovery path: when advance_lifecycle brings
/// a node back up, the hook re-registers its RPC handlers and transfers
/// state. Parameter-server nodes split by id: servers [0, nps) rejoin and
/// restore the last durable checkpoint; workers [nps, nps + nw) just
/// rejoin (their shard is their state). Decentralized peers rejoin both
/// halves and re-sync through the step-tagged model exchange instead — the
/// next write_model folds the live peers' aggregated state in.
/// `only_node` scopes registration to one node id: a multi-process rank
/// owns exactly its own recovery (foreign object copies never serve).
void register_recovery(Runtime& rt, std::optional<net::NodeId> only_node) {
  if (!rt.conditions.has_churn()) return;
  const DeploymentConfig& cfg = rt.config;
  const auto wanted = [only_node](net::NodeId node) {
    return !only_node || *only_node == node;
  };
  if (is_decentralized(cfg)) {
    for (std::size_t i = 0; i < rt.servers.size(); ++i) {
      if (!wanted(i)) continue;
      Server* server = rt.servers[i].get();
      Worker* worker = rt.workers[i].get();
      rt.cluster->set_recovery_handler(i, [server, worker](std::uint64_t it) {
        server->rejoin(it);
        worker->rejoin();
      });
    }
    return;
  }
  for (std::size_t s = 0; s < cfg.nps; ++s) {
    if (!wanted(s)) continue;
    Server* server = rt.servers[s].get();
    rt.cluster->set_recovery_handler(s, [&rt, server, s](std::uint64_t it) {
      server->rejoin(it);
      // State transfer, freshest source first: live peer replicas serve
      // their sealed checkpoint blobs (digest-verified on receipt, so a
      // tampering peer is rejected, not trained on), and only when no
      // verified peer blob arrives does the replica fall back to the
      // durable local checkpoint (config validation requires checkpointing
      // whenever a schedule recovers a server). An unreadable checkpoint —
      // none written yet, or torn — leaves the stale pre-crash state in
      // place; the model exchange pulls the replica forward from there.
      if (recover_from_peers(rt, *server, s, it)) return;
      if (rt.config.checkpoint_path.empty()) return;
      try {
        const Checkpoint ckpt = load_checkpoint(rt.config.checkpoint_path);
        server->write_model(ckpt.parameters);
        if (!ckpt.velocity.empty()) {
          server->restore_optimizer_velocity(ckpt.velocity);
        }
      } catch (const std::exception&) {
      }
    });
  }
  for (std::size_t w = 0; w < cfg.nw; ++w) {
    Worker* worker = rt.workers[w].get();
    rt.cluster->set_recovery_handler(cfg.nps + w, [worker](std::uint64_t) {
      worker->rejoin();
    });
  }
}

/// Resume support: overwrite every replica's state with the checkpoint.
void maybe_resume(Runtime& rt) {
  if (rt.config.resume_from.empty()) return;
  const Checkpoint ckpt = load_checkpoint(rt.config.resume_from);
  for (auto& server : rt.servers) {
    server->write_model(ckpt.parameters);
    // A resumed momentum run continues with the exact saved velocity.
    if (!ckpt.velocity.empty()) {
      server->restore_optimizer_velocity(ckpt.velocity);
    }
  }
}

/// The round loop every deployment runs (Listings 1-3): pull gradients,
/// aggregate, refine through the plan's gossip rounds, step, then exchange
/// and aggregate models when the plan has that stage.
void run_loop(Runtime& rt, std::size_t s) {
  const RoundPlan& plan = rt.plan;
  Server& server = *rt.servers[s];
  gars::AggregationContext& ctx = server.aggregation_context();
  const GarPlan grad = plan_gar(plan.gradients);
  const GarPlan gossip =
      plan.gossip_rounds > 0 ? plan_gar(plan.gossip) : grad;
  const std::optional<GarPlan> model =
      plan.models ? std::optional<GarPlan>(plan_gar(*plan.models))
                  : std::nullopt;
  // Gossip tags encode (iteration, contraction round) in one integer so
  // both the publisher and the puller of a contract() round agree on what
  // "round r of iteration t" means.
  const std::size_t rounds = plan.gossip_rounds;
  const auto gossip_tag = [rounds](std::size_t it, std::size_t r) {
    return std::uint64_t(it) * std::uint64_t(rounds) + std::uint64_t(r);
  };
  for (std::size_t it = 0; it < rt.config.iterations; ++it) {
    const std::optional<std::size_t> next = churn_gate(rt, s, it);
    if (!next) return;
    it = *next;
    if (!churn_floor_holds(rt, grad, plan.gradients, it) ||
        (model && !churn_floor_holds(rt, *model, *plan.models, it)))
      return;
    const bool reporter = reporter_at(plan, rt.conditions, it) == s;
    const std::vector<Payload> grads =
        server.get_gradients(it, plan.gradients.q);
    if (reporter) {
      util::MutexLock lock(rt.report_mutex);
      rt.gradient_counts.emplace_back(it, grads.size());
    }
    if (grads.size() >= grad.min_n) {
      Payload aggr = aggregate(grad, grads, ctx);
      // contract(): multi-round gossip forcing correct nodes together.
      // Listing 3 enables it for non-iid data; it is keyed on the step
      // count here so the ablation can isolate its effect.
      for (std::size_t step = 0; step < rounds; ++step) {
        server.publish_aggr_grad(gossip_tag(it, step), aggr);
        std::vector<Payload> peer_grads =
            server.get_aggr_grads(gossip_tag(it, step), plan.gossip.q, it);
        peer_grads.push_back(aggr);
        if (peer_grads.size() < gossip.min_n) {
          for (std::size_t rest = step + 1; rest < rounds; ++rest)
            server.skip_aggr_grad(gossip_tag(it, rest));
          break;
        }
        aggr = aggregate(gossip, peer_grads, ctx);
      }
      server.update_model(aggr);
    } else if (plan.short_quorum == ShortQuorum::kSkipRound) {
      continue;
    } else if (plan.short_quorum == ShortQuorum::kPublishSkips) {
      // Skipping the iteration must not wedge the peers: publish explicit
      // "no contribution" markers for every gossip round and the unchanged
      // model, so their parked pulls resolve instead of waiting out their
      // deadline.
      for (std::size_t step = 0; step < rounds; ++step)
        server.skip_aggr_grad(gossip_tag(it, step));
      server.publish_model(it);
      continue;
    }
    if (model) {
      // Publish the post-gradient-step state as this replica's model for
      // iteration `it`, then pull the peers' same-iteration states; a pull
      // reaching a peer that has not published `it` yet parks there until
      // that peer publishes — no thread ever blocks on a slow replica.
      server.publish_model(it);
      std::vector<Payload> models = server.get_models(it, plan.models->q);
      models.push_back(server.parameters());
      if (models.size() >= model->min_n) {
        server.write_model(aggregate(*model, models, ctx));
      }
    }
    if (reporter) {
      maybe_eval(rt, server, it);
      maybe_alignment(rt, plan.alignment_cohort, it);
      maybe_checkpoint(rt, server, it);
    }
  }
}

TrainResult harvest(Runtime& rt) {
  if (rt.abort.load()) {
    util::MutexLock lock(rt.abort_mutex);
    throw std::runtime_error(rt.abort_reason);
  }

  const DeploymentConfig& config = rt.config;
  TrainResult result;
  result.iterations_run = config.iterations;
  result.net_stats = rt.cluster->stats();
  result.state_transfers = rt.state_transfers.load();
  result.state_transfer_rejects = rt.state_transfer_rejects.load();
  for (const auto& server : rt.servers) {
    result.rejected_payloads += server->rejected_payloads();
  }
  for (const auto& worker : rt.workers) {
    result.gradients_served += worker->gradients_served();
    result.gradients_computed += worker->gradients_computed();
  }
  {
    // Loops are joined; the locks are for the analysis (and cost nothing).
    util::MutexLock lock(rt.alignment_mutex);
    result.alignment = std::move(rt.alignment);
  }
  {
    util::MutexLock lock(rt.report_mutex);
    std::sort(rt.curve.begin(), rt.curve.end(),
              [](const EvalPoint& a, const EvalPoint& b) {
                return a.iteration < b.iteration;
              });
    std::sort(rt.gradient_counts.begin(), rt.gradient_counts.end());
    result.curve = std::move(rt.curve);
    for (const auto& [it, replies] : rt.gradient_counts)
      result.reporting_gradient_counts.push_back(replies);
  }

  // The last iteration's reporter holds the run's result (validate() and
  // require_a_reporter() guarantee one exists).
  const std::size_t reporter =
      config.iterations == 0
          ? 0
          : reporter_at(rt.plan, rt.conditions, config.iterations - 1)
                .value_or(0);
  Server& server = *rt.servers[reporter];
  if (!result.curve.empty()) {
    result.final_accuracy = result.curve.back().accuracy;
    result.final_loss = result.curve.back().loss;
  } else {
    result.final_accuracy = server.compute_accuracy(rt.test);
    result.final_loss = server.compute_loss(rt.test);
  }
  // Reporter's final model, bit-exact — the cross-backend parity probe (a
  // TCP run of a sync deployment must reproduce the in-process model down
  // to the last float).
  result.final_parameters = server.parameters();
  return result;
}

}  // namespace detail

TrainResult train(const DeploymentConfig& config) {
  config.validate();
  // The TCP backend spreads the deployment over one OS process per node;
  // everything below this dispatch is the single-process path.
  if (config.transport == "tcp") return detail::train_multiprocess(config);

  detail::Runtime rt;
  rt.config = config;
  detail::build_runtime(rt);
  detail::register_recovery(rt);
  detail::maybe_resume(rt);

  // One driving thread per plan driver. Byzantine servers run the same
  // loop (their lies live in their RPC handlers).
  std::vector<std::thread> threads;
  threads.reserve(rt.plan.drivers);
  for (std::size_t s = 0; s < rt.plan.drivers; ++s) {
    threads.emplace_back([&rt, s] { detail::run_loop(rt, s); });
  }
  for (std::thread& t : threads) t.join();

  return detail::harvest(rt);
}

}  // namespace garfield::core
