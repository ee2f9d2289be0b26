// perfbench — the benchmark of record for garfield deployments.
//
//   perfbench --workload <ssmw_cnn|p2p_tcp|msmw_byz> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics: closed loop, one deployment at
// a time, pairs of (1-iteration, N-iteration) core::train() runs of the same
// config for --seconds seconds, cycling through the seed's kTasks learning
// tasks. Each pair runs in a forked child, so a pair's peak RSS and CPU are
// its own. Every figure is the median over pairs (accuracy: the mean over
// tasks of each task's median).
// --trace 1 runs the per-layer pass instead, in this process: untraced and
// traced pairs (the difference is the tracing overhead), then a replay of
// every module's public calls at the workload's shapes, and writes the
// spans as Chrome trace-event JSON.
// Either way every run's output is checked, and the last stdout line is one
// JSON object: {"correct": .., "attempted": .., "failed": .., "metrics": ..}.
// README.md has the workloads, metrics and their predicted interactions.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/trainer.h"
#include "layers.h"
#include "trace.h"
#include "workloads.h"

namespace {

namespace gc = garfield::core;
using perfbench::ScopedSpan;
using perfbench::SteadyClock;
using perfbench::Workload;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  if (argc % 2 != 1) return std::nullopt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value);
      } else if (key == "--trace-out") {
        a.trace_out = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (a.workload.empty() || !have_seed || !(a.seconds > 0.0) ||
      (a.trace != 0 && a.trace != 1)) {
    return std::nullopt;
  }
  return a;
}

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double cpu_seconds(const rusage& u) {
  return double(u.ru_utime.tv_sec) + double(u.ru_stime.tv_sec) +
         double(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

/// CPU seconds of this process plus every waited-for child (the tcp ranks).
double cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage u{};
    ::getrusage(who, &u);
    total += cpu_seconds(u);
  }
  return total;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

using perfbench::quantile;

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// What one core::train() call produced, as plain numbers: it crosses a
/// pipe from the forked child that ran it.
struct Run {
  bool threw = false;
  std::uint64_t task = 0;
  std::uint64_t iterations = 0;
  std::uint64_t iterations_run = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double final_accuracy = 0.0;
  std::uint64_t parameters = 0;  ///< final parameter count
  std::uint64_t digest = 0;      ///< FNV-1a of the final parameter bytes
  garfield::net::NetStats net;
  std::uint64_t rejected_payloads = 0;
  std::uint64_t gradients_served = 0;
  std::uint64_t gradients_computed = 0;
};
static_assert(std::is_trivially_copyable_v<Run>);

Run execute(const Workload& w, std::size_t task, std::size_t iterations) {
  gc::DeploymentConfig c = w.task(task);
  c.iterations = iterations;
  Run r;
  r.task = task;
  r.iterations = iterations;
  const double cpu0 = cpu_seconds();
  const auto t0 = SteadyClock::now();
  try {
    const gc::TrainResult res = gc::train(c);
    r.wall_s = seconds_since(t0);
    r.cpu_s = cpu_seconds() - cpu0;
    r.iterations_run = res.iterations_run;
    r.final_accuracy = res.final_accuracy;
    r.parameters = res.final_parameters.size();
    r.digest = fnv1a(res.final_parameters.data(),
                     res.final_parameters.size() * sizeof(float));
    r.net = res.net_stats;
    r.rejected_payloads = res.rejected_payloads;
    r.gradients_served = res.gradients_served;
    r.gradients_computed = res.gradients_computed;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s task %zu: train() threw: %s\n",
                 w.name.c_str(), task, e.what());
    r.threw = true;
  }
  return r;
}

/// A (1-iteration, N-iteration) pair of one task; set-up cancels in the
/// differences.
struct Pair {
  Run one;
  Run full;
  double peak_rss_mb = 0.0;  ///< the pair's process (largest rank on tcp)
  bool ok = false;
  [[nodiscard]] double steady() const { return double(full.iterations - 1); }
  [[nodiscard]] double its_per_sec() const {
    return steady() / (full.wall_s - one.wall_s);
  }
  [[nodiscard]] double cpu_ms_per_iter() const {
    return 1e3 * (full.cpu_s - one.cpu_s) / steady();
  }
  /// Steady-state rate of a counter: (N-run − 1-run) / (N − 1).
  template <class Get>
  [[nodiscard]] double per_iter(Get get) const {
    return (double(get(full)) - double(get(one))) / steady();
  }
};

bool write_all(int fd, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::write(fd, p, bytes);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    bytes -= std::size_t(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t bytes) {
  auto* p = static_cast<char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::read(fd, p, bytes);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    bytes -= std::size_t(n);
  }
  return true;
}

/// Run a pair in a forked child and collect it; the child's rusage gives the
/// pair's peak RSS (for tcp, the largest rank it waited for). The caller
/// must have no threads of its own.
Pair pair_in_child(const Workload& w, std::size_t task) {
  Pair p;
  p.one.threw = p.full.threw = true;
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("perfbench: pipe");
    return p;
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("perfbench: fork");
    ::close(fds[0]);
    ::close(fds[1]);
    return p;
  }
  if (pid == 0) {
    ::close(fds[0]);
    const Run runs[2] = {execute(w, task, 1), execute(w, task, w.iterations)};
    ::_exit(write_all(fds[1], runs, sizeof(runs)) ? 0 : 1);
  }
  ::close(fds[1]);
  Run runs[2];
  const bool got = read_all(fds[0], runs, sizeof(runs));
  ::close(fds[0]);
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "perfbench: %s pair process failed (status %d)\n",
                 w.name.c_str(), status);
    return p;
  }
  p.one = runs[0];
  p.full = runs[1];
  p.peak_rss_mb = double(usage.ru_maxrss) / 1024.0;  // KiB on Linux
  return p;
}

/// Every run of the invocation, and the checks that decide `failed`.
class Ledger {
 public:
  explicit Ledger(const Workload& w) : w_(w) {}

  /// Check both runs of `p`, count them, and set p.ok.
  void settle(Pair& p) {
    const bool one = check(p.one);
    const bool full = check(p.full);
    p.ok = one && full && p.full.wall_s > p.one.wall_s;
  }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  /// Invocation-wide totals of the failure counters and peer deaths.
  [[nodiscard]] const garfield::net::NetStats& totals() const {
    return totals_;
  }
  [[nodiscard]] std::uint64_t rejected_payloads() const {
    return rejected_payloads_;
  }

  /// One digest for the invocation: FNV-1a over the per-task digests of
  /// the steady-state runs, in task order (sync workloads).
  [[nodiscard]] std::optional<std::uint64_t> digest() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    bool any = false;
    for (const auto& [key, d] : digests_) {
      if (key.second != w_.iterations) continue;
      h = fnv1a(&d, sizeof(d), h);
      any = true;
    }
    return any ? std::optional<std::uint64_t>(h) : std::nullopt;
  }
  [[nodiscard]] std::size_t digest_tasks() const {
    std::size_t n = 0;
    for (const auto& entry : digests_) n += entry.first.second == w_.iterations;
    return n;
  }

 private:
  bool check(const Run& r) {
    ++attempted_;
    std::string why;
    if (r.threw) {
      why = "train() failed";
    } else {
      totals_.quorum_misses += r.net.quorum_misses;
      totals_.retry_give_ups += r.net.retry_give_ups;
      totals_.dropped_tasks += r.net.dropped_tasks;
      totals_.peer_deaths += r.net.peer_deaths;
      rejected_payloads_ += r.rejected_payloads;
      why = verdict(r);
    }
    if (why.empty()) return true;
    ++failed_;
    std::fprintf(stderr, "perfbench: %s task %llu (%llu iterations) failed: "
                 "%s\n", w_.name.c_str(),
                 static_cast<unsigned long long>(r.task),
                 static_cast<unsigned long long>(r.iterations), why.c_str());
    return false;
  }

  /// "" when the run's outputs are right, else why not.
  std::string verdict(const Run& r) {
    // On the ideal network no collect may come up short, no call may be
    // abandoned and no task dropped. peer_deaths is recorded but not a
    // failure: healthy tcp teardowns report some (see README.md).
    if (r.net.quorum_misses != 0 || r.net.retry_give_ups != 0 ||
        r.net.dropped_tasks != 0) {
      return "quorum_misses=" + std::to_string(r.net.quorum_misses) +
             " retry_give_ups=" + std::to_string(r.net.retry_give_ups) +
             " dropped_tasks=" + std::to_string(r.net.dropped_tasks) +
             " on the ideal network";
    }
    if (r.iterations_run != r.iterations) return "iterations_run mismatch";
    if (r.parameters == 0) return "no final parameters";
    if (r.iterations == w_.iterations &&
        r.final_accuracy < w_.accuracy_floor) {
      return "final accuracy " + std::to_string(r.final_accuracy) +
             " below floor " + std::to_string(w_.accuracy_floor);
    }
    if (w_.sync) {
      // Synchronous deployments are bitwise deterministic: every run of one
      // task and length — traced or not — must end on the same parameters.
      const auto [it, fresh] =
          digests_.emplace(std::make_pair(r.task, r.iterations), r.digest);
      if (!fresh && it->second != r.digest) {
        return "final-parameter digest differs between repetitions";
      }
    }
    return "";
  }

  const Workload& w_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::uint64_t rejected_payloads_ = 0;
  garfield::net::NetStats totals_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> digests_;
};

/// Pairs, cycling through the tasks, until `budget_s` has passed and every
/// task ran at least `min_rounds` times; stops early after three failed
/// pairs in a row. `make_pair(task)` produces one unchecked pair.
std::vector<Pair> measure(Ledger& ledger, double budget_s,
                          std::size_t min_rounds,
                          const std::function<Pair(std::size_t)>& make_pair) {
  std::vector<Pair> pairs;
  std::size_t failures_in_row = 0;
  const auto t0 = SteadyClock::now();
  for (std::size_t i = 0;
       (i < min_rounds * perfbench::kTasks || seconds_since(t0) < budget_s) &&
       failures_in_row < 3;
       ++i) {
    Pair p = make_pair(i % perfbench::kTasks);
    ledger.settle(p);
    failures_in_row = p.ok ? 0 : failures_in_row + 1;
    if (p.ok) pairs.push_back(p);
  }
  return pairs;
}

template <class Get>
std::vector<double> column(const std::vector<Pair>& pairs, Get get) {
  std::vector<double> v;
  for (const Pair& p : pairs) v.push_back(get(p));
  return v;
}

/// Mean over tasks of each task's median final accuracy.
double task_mean_accuracy(const std::vector<Pair>& pairs) {
  std::map<std::uint64_t, std::vector<double>> by_task;
  for (const Pair& p : pairs) {
    by_task[p.full.task].push_back(p.full.final_accuracy);
  }
  double sum = 0.0;
  for (const auto& entry : by_task) sum += median(entry.second);
  return by_task.empty() ? 0.0 : sum / double(by_task.size());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_distribution(const std::string& name, const std::string& unit,
                        const std::vector<double>& v) {
  std::printf("  %-18s p25=%-12.6g p50=%-12.6g p75=%-12.6g n=%zu %s\n",
              name.c_str(), quantile(v, 0.25), quantile(v, 0.5),
              quantile(v, 0.75), v.size(), unit.c_str());
}

void print_result(const Ledger& ledger, const std::vector<Metric>& metrics) {
  const bool correct = ledger.failed() == 0 && ledger.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", ledger.attempted(), ledger.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_header(const Workload& w, const Ledger& ledger,
                  const std::string& what) {
  std::printf("%s seed=%llu (task seeds %llu..%llu): %s\n", w.name.c_str(),
              static_cast<unsigned long long>(w.config.seed /
                                              perfbench::kTasks),
              static_cast<unsigned long long>(w.config.seed),
              static_cast<unsigned long long>(w.config.seed +
                                              perfbench::kTasks - 1),
              what.c_str());
  std::printf("  peer_deaths=%llu (recorded, not a failure)\n",
              static_cast<unsigned long long>(ledger.totals().peer_deaths));
  const std::optional<std::uint64_t> d = ledger.digest();
  if (w.sync && d) {
    std::printf("digest %s iterations=%zu tasks=%zu "
                "final_parameters_fnv1a64=%016llx\n",
                w.name.c_str(), w.iterations, ledger.digest_tasks(),
                static_cast<unsigned long long>(*d));
  }
}

// ------------------------------------------------------------ end to end

int end_to_end(const Workload& w, double seconds) {
  Ledger ledger(w);
  const std::vector<Pair> pairs =
      measure(ledger, seconds, /*min_rounds=*/1,
              [&](std::size_t task) { return pair_in_child(w, task); });
  if (pairs.empty()) {
    std::fprintf(stderr, "perfbench: no successful run pair, no result\n");
    return 1;
  }
  const auto its = column(pairs, [](const Pair& p) { return p.its_per_sec(); });
  const auto cpu =
      column(pairs, [](const Pair& p) { return p.cpu_ms_per_iter(); });
  const auto setup = column(pairs, [](const Pair& p) { return p.one.wall_s; });
  const auto acc =
      column(pairs, [](const Pair& p) { return p.full.final_accuracy; });
  const auto rss = column(pairs, [](const Pair& p) { return p.peak_rss_mb; });
  print_header(w, ledger,
               std::to_string(pairs.size()) + " pairs of (1, " +
                   std::to_string(w.iterations) + ")-iteration runs");
  print_distribution("its_per_sec", "1/s", its);
  print_distribution("cpu_ms_per_iter", "ms", cpu);
  print_distribution("setup_s", "s", setup);
  print_distribution("final_accuracy", "ratio", acc);
  print_distribution("peak_rss_mb", "MB", rss);
  const double success =
      1.0 - double(ledger.failed()) / double(ledger.attempted());
  print_result(ledger, {{"its_per_sec", median(its), "1/s"},
                        {"cpu_ms_per_iter", median(cpu), "ms"},
                        {"setup_s", median(setup), "s"},
                        {"final_accuracy", task_mean_accuracy(pairs), "ratio"},
                        {"peak_rss_mb", median(rss), "MB"},
                        {"success_rate", success, "ratio"}});
  return 0;
}

// -------------------------------------------------------------- per layer

int per_layer(const Workload& w, double seconds, const std::string& out) {
  Ledger ledger(w);
  const perfbench::ShapeCounts shape = perfbench::shape_counts(w.config);
  const auto t0 = SteadyClock::now();
  const ScopedSpan root("perfbench:" + w.name, "bench");

  // Untraced and traced pairs, alternated, in this process. Traced runs
  // carry a train() span each and, on in-process workloads, go through the
  // in-run GAR/attack wrappers; untraced runs record no span at all.
  Workload traced_w = w;
  if (!w.tcp()) traced_w.config = perfbench::traced_config(w.config);
  std::uint64_t next_run = 1;
  std::vector<Pair> traced;
  std::vector<double> inrun_gars, inrun_crafts;
  const auto traced_run = [&](std::size_t task, std::size_t iterations) {
    const std::uint64_t run = next_run++;
    const ScopedSpan span("train", "core", root.id(), run);
    perfbench::set_current_run(run, span.id());
    Run r = execute(traced_w, task, iterations);
    perfbench::set_current_run(0, 0);
    return std::make_pair(run, r);
  };
  const std::vector<Pair> untraced =
      measure(ledger, 0.5 * seconds, 0, [&](std::size_t task) {
        Pair u{execute(w, task, 1), execute(w, task, w.iterations)};
        const auto [run_one, one] = traced_run(task, 1);
        const auto [run_full, full] = traced_run(task, w.iterations);
        Pair t{one, full};
        ledger.settle(t);
        if (t.ok) {
          const auto spans = perfbench::recorded_spans();
          const auto steady = [&](std::initializer_list<const char*> names) {
            double c = 0;
            for (const perfbench::Span& s : spans) {
              for (const char* name : names) {
                if (s.name != name) continue;
                c += s.run == run_full ? 1.0 : s.run == run_one ? -1.0 : 0.0;
              }
            }
            return c / t.steady();
          };
          inrun_gars.push_back(
              steady({"gars.gradient_rule", "gars.model_rule"}));
          inrun_crafts.push_back(
              steady({"attacks.worker_craft", "attacks.server_craft"}));
          traced.push_back(t);
        }
        return u;
      });

  const ScopedSpan replay_root("replay", "bench", root.id());
  const perfbench::LayerReport L =
      perfbench::replay_layers(w, replay_root.id(), 0.4 * seconds);
  print_header(w, ledger,
               std::to_string(untraced.size()) + " untraced + " +
                   std::to_string(traced.size()) + " traced pairs, replay d=" +
                   std::to_string(L.dimension) + ", " +
                   std::to_string(seconds_since(t0)) + " s");
  if (untraced.empty() || traced.empty()) {
    std::fprintf(stderr, "perfbench: no successful run pair, no result\n");
    return 1;
  }

  const double its = median(
      column(untraced, [](const Pair& p) { return p.its_per_sec(); }));
  const double its_traced =
      median(column(traced, [](const Pair& p) { return p.its_per_sec(); }));
  const double cpu_ms = median(
      column(untraced, [](const Pair& p) { return p.cpu_ms_per_iter(); }));
  const auto rate = [&](auto get) {
    return median(
        column(untraced, [&](const Pair& p) { return p.per_iter(get); }));
  };
  // tcp counters are rank 0's process; its peers are symmetric, so the
  // cluster-wide gradient count is rank 0's times the peer count.
  const double scope = w.tcp() ? 1.0 / double(w.config.total_nodes()) : 1.0;
  const double gradients =
      rate([](const Run& r) { return r.gradients_computed; }) *
      (w.tcp() ? double(w.config.nw) : 1.0);
  const Run& last = untraced.back().full;
  const double hit_ratio =
      last.gradients_served == 0
          ? 0.0
          : 1.0 - double(last.gradients_computed) /
                      double(last.gradients_served);
  // In-process runs count GAR and attack calls in-run; tcp ranks run in
  // other processes, so their counts come from the deployment shape.
  const double gars_per_iter =
      w.tcp() ? shape.gradient_gar_calls + shape.model_gar_calls
              : median(inrun_gars);
  const double crafts_per_iter =
      w.tcp() ? shape.worker_crafts + shape.server_crafts
              : median(inrun_crafts);

  // CPU the replay explains: per-call CPU x calls per iteration. In-run GAR
  // and craft counts split between the two rules as the shape does.
  const double grad_share =
      shape.gradient_gar_calls /
      std::max(shape.gradient_gar_calls + shape.model_gar_calls, 1.0);
  const double craft_share =
      shape.worker_crafts /
      std::max(shape.worker_crafts + shape.server_crafts, 1.0);
  const double explained_us =
      gradients * L.gradient.cpu_us_per_call +
      shape.optimizer_steps * L.optimizer_step.cpu_us_per_call +
      gars_per_iter * (grad_share * L.gradient_rule.cpu_us_per_call +
                       (1 - grad_share) * L.model_rule.cpu_us_per_call) +
      crafts_per_iter * (craft_share * L.worker_craft.cpu_us_per_call +
                         (1 - craft_share) * L.server_craft.cpu_us_per_call) +
      shape.encode_gradient * L.encode_gradient.cpu_us_per_call +
      shape.encode_state * L.encode_state.cpu_us_per_call +
      shape.decode_gradient * L.decode_gradient.cpu_us_per_call +
      shape.decode_state * L.decode_state.cpu_us_per_call +
      shape.wire_frames * (L.wire_encode.cpu_us_per_call +
                           L.wire_decode.cpu_us_per_call);

  for (const auto& [name, s] :
       std::initializer_list<std::pair<const char*, perfbench::CallStats>>{
           {"nn.gradient", L.gradient},
           {"nn.optimizer_step", L.optimizer_step},
           {"gars.gradient_rule", L.gradient_rule},
           {"gars.model_rule", L.model_rule},
           {"attacks.worker_craft", L.worker_craft},
           {"attacks.server_craft", L.server_craft},
           {"codec.encode_gradient", L.encode_gradient},
           {"codec.encode_state", L.encode_state},
           {"codec.decode_gradient", L.decode_gradient},
           {"codec.decode_state", L.decode_state},
           {"wire.encode", L.wire_encode},
           {"wire.decode", L.wire_decode},
           {"net.rpc_rtt", L.rpc_rtt},
           {"net.tcp_rtt_1", L.tcp_rtt_1},
           {"net.tcp_rtt_d", L.tcp_rtt_d}}) {
    std::printf("  replay %-22s p50=%-10.4g p99=%-10.4g cpu/call=%-10.4g "
                "us n=%zu\n",
                name, s.p50_us, s.p99_us, s.cpu_us_per_call, s.calls);
  }
  // In-run calls captured by the wrappers, beside their replayed twins.
  std::map<std::string, std::vector<double>> inrun_us;
  for (const perfbench::Span& s : perfbench::recorded_spans()) {
    if (s.run != 0 && s.name != "train") {
      inrun_us[s.name].push_back(
          std::chrono::duration<double, std::micro>(s.end - s.start).count());
    }
  }
  for (const auto& [name, v] : inrun_us) {
    std::printf("  in-run %-22s p50=%-10.4g p99=%-10.4g us n=%zu\n",
                name.c_str(), quantile(v, 0.5), quantile(v, 0.99), v.size());
  }
  if (!out.empty()) {
    const auto dir = std::filesystem::path(out).parent_path();
    if (!dir.empty()) std::filesystem::create_directories(dir);
    perfbench::write_chrome_json(out);
    std::printf("  %zu spans written to %s\n",
                perfbench::recorded_spans().size(), out.c_str());
  }

  const garfield::net::NetStats& totals = ledger.totals();
  const double replies = double(last.net.replies_received);
  print_result(ledger, {
      {"nn.gradient_ms", L.gradient.p50_us / 1e3, "ms"},
      {"nn.gradient_p99_ms", L.gradient.p99_us / 1e3, "ms"},
      {"nn.optimizer_step_us", L.optimizer_step.p50_us, "us"},
      {"nn.gradients_per_iter", gradients, "count"},
      {"nn.cache_hit_ratio", hit_ratio, "ratio"},
      {"gars.gradient_rule_us", L.gradient_rule.p50_us, "us"},
      {"gars.gradient_rule_p99_us", L.gradient_rule.p99_us, "us"},
      {"gars.model_rule_us", L.model_rule.p50_us, "us"},
      {"gars.calls_per_iter", gars_per_iter, "count"},
      {"attacks.craft_us", L.worker_craft.p50_us, "us"},
      {"attacks.server_craft_us", L.server_craft.p50_us, "us"},
      {"attacks.calls_per_iter", crafts_per_iter, "count"},
      {"codec.encode_gradient_us", L.encode_gradient.p50_us, "us"},
      {"codec.encode_state_us", L.encode_state.p50_us, "us"},
      {"codec.decode_us", L.decode_gradient.p50_us, "us"},
      {"codec.decode_state_us", L.decode_state.p50_us, "us"},
      {"codec.calls_per_iter",
       shape.encode_gradient + shape.encode_state + shape.decode_gradient +
           shape.decode_state,
       "count"},
      {"codec.bytes_saved_per_iter",
       rate([](const Run& r) { return r.net.bytes_saved; }), "B"},
      {"wire.encode_us", L.wire_encode.p50_us, "us"},
      {"wire.decode_us", L.wire_decode.p50_us, "us"},
      {"wire.frames_per_iter", shape.wire_frames, "count"},
      {"net.rpc_rtt_us", L.rpc_rtt.p50_us, "us"},
      {"net.tcp_rtt_1_us", L.tcp_rtt_1.p50_us, "us"},
      {"net.tcp_rtt_d_us", L.tcp_rtt_d.p50_us, "us"},
      {"net.requests_per_iter",
       rate([](const Run& r) { return r.net.requests_sent; }), "count"},
      {"net.bytes_per_iter",
       rate([](const Run& r) { return r.net.bytes_sent; }), "B"},
      {"net.wasted_reply_ratio",
       replies > 0 ? double(last.net.wasted_replies) / replies : 0.0, "ratio"},
      {"net.counter_scope", scope, "ratio"},
      {"net.quorum_misses", double(totals.quorum_misses), "count"},
      {"net.retry_give_ups", double(totals.retry_give_ups), "count"},
      {"net.dropped_tasks", double(totals.dropped_tasks), "count"},
      {"net.peer_deaths", double(totals.peer_deaths), "count"},
      {"core.its_per_sec_untraced", its, "1/s"},
      {"core.cpu_ms_per_iter_untraced", cpu_ms, "ms"},
      {"core.residual_cpu_ms_per_iter", cpu_ms - explained_us / 1e3, "ms"},
      {"core.rejected_payloads", double(ledger.rejected_payloads()), "count"},
      {"sim.predicted_its_per_sec", L.sim_predicted_its_per_sec, "1/s"},
      {"sim.error_ratio", std::abs(L.sim_predicted_its_per_sec - its) / its,
       "ratio"},
      {"trace.its_per_sec_traced", its_traced, "1/s"},
      {"trace.overhead_ratio", (its - its_traced) / its, "ratio"},
  });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::string names;
    for (const std::string& n : perfbench::workload_names()) {
      names += (names.empty() ? "" : "|") + n;
    }
    std::fprintf(stderr,
                 "usage: perfbench --workload <%s> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
                 names.c_str());
    return 2;
  }
  try {
    const Workload w = perfbench::make_workload(args->workload, args->seed);
    return args->trace == 0 ? end_to_end(w, args->seconds)
                            : per_layer(w, args->seconds, args->trace_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
