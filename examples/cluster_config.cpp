// Controller demo: run an experiment described by a config file, the way
// the paper's controller launches deployments from cluster descriptions.
//
// Usage: ./examples/cluster_config <config-file>
//        ./examples/cluster_config --print-default
//
// A config that fails to parse or validate prints the pointed message to
// stderr and exits 1.
#include <cstdio>
#include <exception>
#include <string>

#include "core/controller.h"

namespace {

constexpr const char* kDefaultConfig = R"(# Garfield experiment description
deployment   = msmw
model        = tiny_mlp
nw = 8   fw = 1
nps = 4  fps = 1
gradient_gar = multi_krum
model_gar    = median
worker_attack = reversed
server_attack = reversed
batch_size = 16
train_size = 2048
test_size  = 512
lr = 0.1
iterations = 150
eval_every = 25
seed = 5
# network conditions (net/conditions.h spec; omit for an ideal network):
# network = wan:latency=100us,jitter=50us;straggler:nodes=11,lag=5ms,from_iter=50
# transport backend: inproc (threads, default) or tcp (a process per node):
# transport = tcp
)";

int run(int argc, char** argv) {
  using namespace garfield::core;
  if (argc > 1 && std::string(argv[1]) == "--print-default") {
    std::printf("%s", kDefaultConfig);
    return 0;
  }

  DeploymentConfig cfg;
  if (argc > 1) {
    cfg = load_config_file(argv[1]);
    std::printf("loaded %s\n", argv[1]);
  } else {
    cfg = parse_config(kDefaultConfig);
    std::printf("no config given; using the built-in default "
                "(--print-default to inspect)\n");
  }
  cfg.validate();
  std::printf("--- effective configuration ---\n%s-------------------------------\n",
              format_config(cfg).c_str());

  const TrainResult result = train(cfg);
  for (const EvalPoint& p : result.curve) {
    std::printf("iteration %4zu: accuracy %.3f, loss %.3f\n", p.iteration,
                p.accuracy, p.loss);
  }
  std::printf("final accuracy %.3f after %zu iterations\n",
              result.final_accuracy, result.iterations_run);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}
