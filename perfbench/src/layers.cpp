#include "layers.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <future>
#include <memory>
#include <stdexcept>
#include <vector>

#include "attacks/registry.h"
#include "data/dataset.h"
#include "gars/registry.h"
#include "net/cluster.h"
#include "net/codec.h"
#include "net/tcp_transport.h"
#include "net/wire.h"
#include "nn/optimizer.h"
#include "nn/zoo.h"
#include "sim/deployment_sim.h"
#include "tensor/rng.h"
#include "trace.h"

namespace perfbench {

namespace {

namespace gc = garfield::core;
namespace net = garfield::net;
using garfield::tensor::FlatVector;
using garfield::tensor::Rng;

double process_cpu_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) * 1e6 + double(ts.tv_nsec) / 1e3;
}

/// Time `fn(i)` repeatedly: a few untimed warm-up calls, then at least
/// `min_calls` and at most `max_calls` timed ones, stopping early once
/// `budget_s` has elapsed. One span per timed call, under one layer span.
template <class Fn>
CallStats replay(const std::string& name, const std::string& layer,
                 std::uint64_t parent, double budget_s, std::size_t min_calls,
                 std::size_t max_calls, Fn&& fn) {
  for (std::size_t i = 0; i < 3; ++i) fn(i);
  const ScopedSpan layer_span("replay:" + name, layer, parent);
  std::vector<double> us;
  us.reserve(max_calls);
  const auto stop = SteadyClock::now() +
                    std::chrono::duration_cast<SteadyClock::duration>(
                        std::chrono::duration<double>(budget_s));
  const double cpu0 = process_cpu_us();
  for (std::size_t i = 3; us.size() < max_calls &&
                          (us.size() < min_calls || SteadyClock::now() < stop);
       ++i) {
    const ScopedSpan span(name, layer, layer_span.id());
    const auto t0 = SteadyClock::now();
    fn(i);
    us.push_back(
        std::chrono::duration<double, std::micro>(SteadyClock::now() - t0)
            .count());
  }
  CallStats s;
  s.calls = us.size();
  s.cpu_us_per_call = (process_cpu_us() - cpu0) / double(us.size());
  s.p50_us = quantile(us, 0.5);
  s.p99_us = quantile(us, 0.99);
  return s;
}

/// A 127.0.0.1 listener on a kernel-chosen port.
int listen_localhost(std::uint16_t& port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 4) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("listen on 127.0.0.1: " + err);
  }
  port = ntohs(addr.sin_port);
  return fd;
}

/// Round trips of an echo request over a two-rank TcpTransport pair in
/// this process, carrying `floats` floats each way.
CallStats tcp_round_trips(const std::string& name, std::size_t floats,
                          std::uint64_t parent, double budget_s) {
  std::vector<std::uint16_t> ports(2);
  std::vector<int> fds(2);
  for (std::size_t r = 0; r < 2; ++r) fds[r] = listen_localhost(ports[r]);
  std::vector<std::shared_ptr<net::TcpTransport>> ends;
  for (std::size_t r = 0; r < 2; ++r) {
    net::TcpTransport::Options o;
    o.rank = r;
    o.nodes = 2;
    o.listen_fd = fds[r];
    o.ports = ports;
    o.pool_threads = 1;
    ends.push_back(std::make_shared<net::TcpTransport>(o));
  }
  const auto echo = [](net::Request request, net::Clock::time_point,
                       net::Transport::Respond respond) {
    respond(request.argument);
  };
  // Rank 1 connects to rank 0's already-listening socket, so starting it
  // first never blocks; rank 0 then accepts.
  ends[1]->start(echo);
  ends[0]->start(echo);
  const auto argument = std::make_shared<const net::Payload>(floats, 0.5F);
  CallStats s = replay(name, "net", parent, budget_s, 50, 2000,
                       [&](std::size_t i) {
    std::promise<net::PayloadPtr> reply;
    std::future<net::PayloadPtr> done = reply.get_future();
    net::Request req;
    req.from = 1;
    req.to = 0;
    req.method = "echo";
    req.iteration = i;
    req.argument = argument;
    const bool sent = ends[1]->send(
        std::move(req), net::Duration(0),
        net::Clock::now() + std::chrono::seconds(10),
        [&reply](net::PayloadPtr p) { reply.set_value(std::move(p)); });
    const net::PayloadPtr p = sent ? done.get() : nullptr;
    if (!p || p->size() != floats) {
      throw std::runtime_error(name + ": echo round trip failed");
    }
  });
  ends[1]->shutdown();
  ends[0]->shutdown();
  return s;
}

garfield::sim::SimDeployment sim_deployment(gc::Deployment d) {
  switch (d) {
    case gc::Deployment::kVanilla:
      return garfield::sim::SimDeployment::kVanilla;
    case gc::Deployment::kCrashTolerant:
      return garfield::sim::SimDeployment::kCrashTolerant;
    case gc::Deployment::kSsmw: return garfield::sim::SimDeployment::kSsmw;
    case gc::Deployment::kMsmw: return garfield::sim::SimDeployment::kMsmw;
    case gc::Deployment::kDecentralized:
      return garfield::sim::SimDeployment::kDecentralized;
  }
  throw std::logic_error("unknown deployment");
}

}  // namespace

LayerReport replay_layers(const Workload& w, std::uint64_t parent,
                          double budget_seconds) {
  const gc::DeploymentConfig& cfg = w.config;
  const ShapeCounts shape = shape_counts(cfg);
  const double slice = budget_seconds / 16.0;  // 15 replays + set-up
  LayerReport r;

  // Inputs drawn exactly as the trainer draws them from the config seed.
  Rng root(cfg.seed);
  Rng model_rng = root.fork(1);
  Rng data_rng = root.fork(2);
  garfield::nn::ModelPtr model = garfield::nn::make_model(cfg.model, model_rng);
  const std::size_t d = model->dimension();
  r.dimension = d;
  const garfield::data::Dataset full = garfield::data::make_cluster_dataset(
      model->input_shape(), model->num_classes(),
      cfg.train_size + cfg.test_size, data_rng, cfg.dataset_noise);
  const garfield::data::Dataset train = full.split(cfg.train_size).first;
  garfield::data::BatchSampler sampler(train, cfg.batch_size, root.fork(300));
  std::vector<garfield::data::Batch> batches;
  for (std::size_t i = 0; i < 16; ++i) batches.push_back(sampler.next());

  r.gradient = replay("nn.gradient", "nn", parent, 3 * slice, 20, 2000,
                      [&](std::size_t i) {
    const auto& b = batches[i % batches.size()];
    (void)model->gradient(b.inputs, b.labels);
  });

  // Honest gradients and diverging model replicas as GAR / codec inputs.
  const FlatVector params = model->parameters();
  std::vector<FlatVector> grads;
  std::vector<FlatVector> models;
  const std::size_t inputs = std::max(shape.grad_q, shape.model_q);
  for (std::size_t i = 0; i < inputs; ++i) {
    const auto& b = batches[i % batches.size()];
    grads.push_back(model->gradient(b.inputs, b.labels).gradient);
    FlatVector m = params;
    for (std::size_t k = 0; k < d; ++k) m[k] -= 0.05F * grads.back()[k];
    models.push_back(std::move(m));
  }

  garfield::nn::SgdOptimizer optimizer(cfg.optimizer);
  FlatVector stepped = params;
  r.optimizer_step = replay("nn.optimizer_step", "nn", parent, slice, 50,
                            2000, [&](std::size_t i) {
    optimizer.step(stepped, grads[i % grads.size()], i);
  });

  const auto time_gar = [&](const std::string& name, const std::string& spec,
                            std::size_t q, std::size_t f,
                            const std::vector<FlatVector>& pool) {
    const garfield::gars::GarPtr gar =
        garfield::gars::make_gar(garfield::gars::parse_gar_spec(spec), q, f);
    const std::vector<FlatVector> in(pool.begin(),
                                     pool.begin() + std::ptrdiff_t(q));
    garfield::gars::AggregationContext ctx;
    FlatVector out;
    return replay(name, "gars", parent, slice, 50, 2000,
                  [&](std::size_t) { gar->aggregate_into(in, ctx, out); });
  };
  r.gradient_rule = time_gar("gars.gradient_rule", cfg.gradient_gar,
                             shape.grad_q, shape.grad_f, grads);
  r.model_rule = time_gar("gars.model_rule", cfg.model_gar, shape.model_q,
                          shape.model_f, models);

  // Honest workloads mount no attack; their craft figure replays the
  // cheapest representative so the number stays comparable.
  const auto time_attack = [&](const std::string& name, std::string spec,
                               const std::string& fallback, std::size_t n,
                               std::size_t f) {
    if (spec.empty()) spec = fallback;
    garfield::attacks::AttackPtr attack = garfield::attacks::make_attack(
        garfield::attacks::parse_attack_spec(spec));
    Rng rng = root.fork(400);
    return replay(name, "attacks", parent, slice, 50, 2000,
                  [&](std::size_t i) {
      garfield::attacks::AttackContext ctx(rng);
      ctx.iteration = i;
      ctx.n = n;
      ctx.f = f;
      (void)attack->craft(grads[i % grads.size()], ctx);
    });
  };
  r.worker_craft = time_attack("attacks.worker_craft", cfg.worker_attack,
                               "sign_flip", cfg.nw, cfg.fw);
  r.server_craft = time_attack("attacks.server_craft", cfg.server_attack,
                               "reversed", shape.model_q, shape.model_f);

  const net::Codec codec(net::CodecSpec::parse(cfg.codec));
  net::Payload residual;
  r.encode_gradient = replay("codec.encode_gradient", "codec", parent, slice,
                             50, 2000, [&](std::size_t i) {
    (void)codec.encode_gradient(grads[i % grads.size()], &residual);
  });
  r.encode_state = replay("codec.encode_state", "codec", parent, slice, 50,
                          2000, [&](std::size_t i) {
    (void)codec.encode_state(models[i % models.size()]);
  });
  const net::Payload encoded_grad = codec.encode_gradient(grads[0], nullptr);
  const net::Payload encoded_state = codec.encode_state(params);
  const auto decode_or_throw = [&](const net::Payload& p) {
    if (!codec.decode(p, d)) {
      throw std::runtime_error("codec replay: own frame failed to decode");
    }
  };
  r.decode_gradient =
      replay("codec.decode_gradient", "codec", parent, slice, 50, 2000,
             [&](std::size_t) { decode_or_throw(encoded_grad); });
  r.decode_state = replay("codec.decode_state", "codec", parent, slice, 50,
                          2000,
                          [&](std::size_t) { decode_or_throw(encoded_state); });

  std::vector<std::uint8_t> framed;
  r.wire_encode = replay("wire.encode", "wire", parent, slice, 50, 2000,
                         [&](std::size_t i) {
    framed = net::frame(net::encode(i, grads[i % grads.size()]));
  });
  r.wire_decode = replay("wire.decode", "wire", parent, slice, 50, 2000,
                         [&](std::size_t) {
    net::FrameDecoder decoder;
    decoder.feed(framed);
    const std::optional<std::vector<std::uint8_t>> body = decoder.next();
    if (!body || net::decode(*body).payload.size() != d) {
      throw std::runtime_error("wire replay: own frame failed to decode");
    }
  });

  {
    net::Cluster::Options o;
    o.nodes = 2;
    o.pool_threads = cfg.pool_threads;
    net::Cluster cluster(o);
    const auto empty = std::make_shared<const net::Payload>();
    cluster.register_handler(1, "noop", [empty](const net::Request&) {
      return net::HandlerResult::reply(empty);
    });
    const std::vector<net::NodeId> callee{1};
    r.rpc_rtt = replay("net.rpc_rtt", "net", parent, slice, 50, 2000,
                       [&](std::size_t i) {
      if (cluster.collect(0, callee, "noop", i, nullptr, 1).size() != 1) {
        throw std::runtime_error("rpc replay: no-op call went unanswered");
      }
    });
  }
  r.tcp_rtt_1 = tcp_round_trips("net.tcp_rtt_1", 1, parent, slice);
  r.tcp_rtt_d = tcp_round_trips("net.tcp_rtt_d", d, parent, slice);

  garfield::sim::SimSetup sim;
  sim.deployment = sim_deployment(cfg.deployment);
  sim.d = d;
  sim.batch_size = cfg.batch_size;
  sim.nw = cfg.nw;
  sim.fw = cfg.fw;
  sim.nps = cfg.nps;
  sim.fps = cfg.fps;
  sim.gradient_gar = garfield::gars::parse_gar_spec(cfg.gradient_gar).name;
  sim.model_gar = garfield::gars::parse_gar_spec(cfg.model_gar).name;
  sim.asynchronous =
      cfg.asynchronous || cfg.deployment == gc::Deployment::kDecentralized;
  sim.device = garfield::sim::cpu_profile();
  sim.link = garfield::sim::cpu_link();
  sim.codec_ratio = net::CodecSpec::parse(cfg.codec).wire_ratio(d);
  // batches_per_sec counts nw mini-batches per iteration.
  r.sim_predicted_its_per_sec =
      garfield::sim::batches_per_sec(sim) / double(cfg.nw);
  return r;
}

}  // namespace perfbench
