// Schedule model-checker for the node-lifecycle FSM (README "Node
// lifecycle & churn", net/cluster.h).
//
// The churn/lifecycle tests elsewhere exercise a handful of hand-picked
// trajectories; this suite explores the *schedule space*. Every concurrent
// history of the lifecycle plane is some interleaving of a few primitives —
// advance_lifecycle(iter) calls (any loop thread, any iteration order),
// message deliveries, the manual crash/begin_recovery/complete_recovery
// edges, and the wakes that re-run parked not-ready requests — and because
// each primitive is executed to completion here (pool_threads=1, zero
// simulated delay, wait-per-callback), every distinct *order* of
// primitives is a distinct logical interleaving of the real
// implementation, not of a model of it.
//
// Three explorers:
//  - an exhaustive pass over every manual-edge sequence of depth 4 on two
//    nodes (6^4 = 1296 schedules), cross-checked against a shadow FSM,
//  - a seeded DFS over advance/delivery interleavings of a two-event churn
//    schedule (budget 12'000 distinct schedules), cross-checked against
//    the NetworkConditions membership predicate `churn_down` — the same
//    oracle the analytic plane uses, so live FSM and sim plane cannot
//    drift apart anywhere in the explored space, and
//  - an exhaustive pass over park/wake/publish/crash/recover/new-request
//    sequences, including a publication landing between a handler's
//    answer and its park, ending in the callers' deadline or in transport
//    shutdown (6^4 + 6^3 = 1512 schedules), cross-checked against a shadow
//    of the parked requests.
//
// Together the passes explore >= 10'000 distinct schedules. Invariants
// checked on every schedule:
//  - no delivery to a non-RUNNING node (fail-silent: nullptr reply, the
//    handler never fires);
//  - the recovery edges are strict (CRASHED -> RECOVERING -> RUNNING;
//    anything else throws std::logic_error and leaves the state unchanged);
//  - advance_lifecycle never parks a node mid-recovery;
//  - every request resolves exactly once — reply, crash, deadline or
//    shutdown — and a parked request runs its handler once per wake, never
//    on a timer;
//  - the below-floor churn abort fires deterministically with a
//    byte-identical diagnostic.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/trainer.h"
#include "net/cluster.h"
#include "net/conditions.h"
#include "tensor/parallel.h"

namespace gc = garfield::core;
namespace gn = garfield::net;

namespace {

/// Synchronous delivery: one call(), wait for its callback. With zero
/// simulated delay and a single pool thread the reply (or refusal)
/// resolves immediately, so the caller observes exactly the lifecycle
/// state the schedule put the callee in.
gn::PayloadPtr deliver(gn::Cluster& cluster, gn::NodeId from, gn::NodeId to,
                       std::uint64_t iteration,
                       gn::Duration timeout = std::chrono::seconds(5)) {
  std::promise<gn::PayloadPtr> done;
  std::future<gn::PayloadPtr> reply = done.get_future();
  cluster.call(from, to, "probe", iteration, nullptr,
               [&done](gn::PayloadPtr p) { done.set_value(std::move(p)); },
               timeout);
  return reply.get();
}

std::string schedule_name(const std::vector<int>& schedule) {
  std::string name;
  for (int a : schedule) {
    if (!name.empty()) name += ',';
    name += std::to_string(a);
  }
  return name;
}

}  // namespace

// ------------------------------------------------ exhaustive manual edges

namespace {

enum class ShadowState { kRunning, kCrashed, kRecovering };

struct ShadowNode {
  ShadowState state = ShadowState::kRunning;
  bool handlers_present = true;  // dropped at crash, like the real thing
};

/// Apply one manual edge to the shadow FSM. Returns true when the edge is
/// legal; an illegal edge leaves the shadow unchanged (the real cluster
/// must throw and do the same).
bool shadow_apply(ShadowNode& node, int op) {
  switch (op) {
    case 0:  // crash: any state -> CRASHED, handlers dropped
      node.state = ShadowState::kCrashed;
      node.handlers_present = false;
      return true;
    case 1:  // begin_recovery: CRASHED -> RECOVERING only
      if (node.state != ShadowState::kCrashed) return false;
      node.state = ShadowState::kRecovering;
      return true;
    default:  // complete_recovery: RECOVERING -> RUNNING only
      if (node.state != ShadowState::kRecovering) return false;
      node.state = ShadowState::kRunning;
      return true;
  }
}

gn::NodeLifecycle to_lifecycle(ShadowState s) {
  switch (s) {
    case ShadowState::kRunning:
      return gn::NodeLifecycle::kRunning;
    case ShadowState::kCrashed:
      return gn::NodeLifecycle::kCrashed;
    default:
      return gn::NodeLifecycle::kRecovering;
  }
}

}  // namespace

TEST(LifecycleModelCheck, ExhaustiveManualEdgeSequencesMatchShadowFsm) {
  // Every sequence of 4 ops over {crash, begin_recovery, complete_recovery}
  // x {node 0, node 1}: 6^4 = 1296 schedules, executed exhaustively.
  constexpr int kOpsPerNode = 3;
  constexpr std::size_t kNodes = 2;
  constexpr int kAlphabet = kOpsPerNode * int(kNodes);
  constexpr int kDepth = 4;

  std::uint64_t total = 1;
  for (int d = 0; d < kDepth; ++d) total *= kAlphabet;

  std::uint64_t explored = 0;
  for (std::uint64_t code = 0; code < total; ++code) {
    // Decode the schedule id into its op sequence (base-6 digits).
    std::vector<int> schedule(kDepth);
    std::uint64_t rest = code;
    for (int d = 0; d < kDepth; ++d) {
      schedule[d] = int(rest % kAlphabet);
      rest /= kAlphabet;
    }

    // Handler captures must outlive the cluster (teardown flushes the
    // timer backlog inline), so declare them first.
    std::array<ShadowNode, kNodes> shadow;
    std::array<int, kNodes> served{};
    gn::Cluster::Options opt;
    opt.nodes = kNodes;
    opt.pool_threads = 1;
    gn::Cluster cluster(opt);
    for (gn::NodeId node = 0; node < kNodes; ++node) {
      cluster.register_handler(
          node, "probe", [&served, node](const gn::Request&) {
            ++served[node];
            return gn::HandlerResult::reply(gn::Payload{float(node)});
          });
    }

    for (int action : schedule) {
      const auto node = gn::NodeId(action / kOpsPerNode);
      const int op = action % kOpsPerNode;
      const bool legal = shadow_apply(shadow[node], op);
      bool threw = false;
      try {
        if (op == 0) {
          cluster.crash(node);
        } else if (op == 1) {
          cluster.begin_recovery(node);
        } else {
          cluster.complete_recovery(node);
        }
      } catch (const std::logic_error&) {
        threw = true;
      }
      ASSERT_EQ(threw, !legal)
          << "schedule " << schedule_name(schedule) << " op " << action;
      // Legal or not, the cluster must agree with the shadow afterwards:
      // an illegal edge may not move the state.
      for (gn::NodeId check = 0; check < kNodes; ++check) {
        ASSERT_EQ(cluster.lifecycle(check), to_lifecycle(shadow[check].state))
            << "schedule " << schedule_name(schedule) << " node " << check;
      }
    }

    // Fail-silence at the end state: a delivery reaches the handler iff the
    // node is RUNNING *and* still has the handler (crash drops handlers; a
    // manually completed recovery without re-registration serves nothing —
    // exactly the restarted-empty-process semantics the trainer's recovery
    // hook exists to fix).
    const int before = served[0];
    const gn::PayloadPtr reply = deliver(cluster, 1, 0, /*iteration=*/0);
    const bool expect_served =
        shadow[0].state == ShadowState::kRunning && shadow[0].handlers_present;
    ASSERT_EQ(reply != nullptr, expect_served)
        << "schedule " << schedule_name(schedule);
    ASSERT_EQ(served[0], before + (expect_served ? 1 : 0))
        << "schedule " << schedule_name(schedule);
    ++explored;
  }
  EXPECT_EQ(explored, total);
  RecordProperty("schedules_explored", std::to_string(explored));
}

// ------------------------------------------- seeded DFS over churn space

namespace {

/// Two overlapping crash windows on four nodes: node 1 is down over
/// [2, 4), node 2 over [3, 6). Advancing past 6 must walk both nodes all
/// the way back up regardless of the order the horizon grew in.
constexpr const char* kChurnSpec =
    "churn:crash=1,at_iter=2,recover_after=2;"
    "churn:crash=2,at_iter=3,recover_after=3";

/// Action alphabet for the DFS. Advances deliberately include horizon
/// jumps (6 straight from 0 spans a whole crash window: the down-edge must
/// still fire before the up-edge) and deliveries probe the two churned
/// nodes at the current horizon.
constexpr std::array<std::uint64_t, 5> kAdvances{1, 2, 3, 4, 6};
constexpr int kDeliverTargets = 2;  // nodes 1 and 2
constexpr int kDfsAlphabet = int(kAdvances.size()) + kDeliverTargets;
constexpr int kDfsDepth = 6;
constexpr std::size_t kDfsBudget = 12'000;

/// Replay one schedule against a fresh cluster, asserting the membership
/// invariants after every action. Returns false (with a recorded gtest
/// failure) on the first violation.
void run_churn_schedule(const std::vector<int>& schedule,
                        const gn::NetworkConditions& conditions) {
  // Declared before the cluster: handler captures must outlive it.
  std::array<int, 4> served{};
  const auto probe_for = [&served](gn::NodeId node) {
    return [&served, node](const gn::Request&) {
      ++served[node];
      return gn::HandlerResult::reply(gn::Payload{float(node)});
    };
  };

  gn::Cluster::Options opt;
  opt.nodes = 4;
  opt.pool_threads = 1;
  opt.conditions = conditions;
  gn::Cluster cluster(opt);
  for (gn::NodeId node = 0; node < 4; ++node) {
    cluster.register_handler(node, "probe", probe_for(node));
  }
  // The recovery hook re-registers the probe handler — the miniature of
  // the trainer's re-register + state-transfer hook.
  for (gn::NodeId node = 1; node <= 2; ++node) {
    cluster.set_recovery_handler(
        node, [&cluster, &probe_for, node](std::uint64_t) {
          cluster.register_handler(node, "probe", probe_for(node));
        });
  }

  std::uint64_t horizon = 0;
  const auto check_membership = [&](const char* when) {
    for (gn::NodeId node = 0; node < 4; ++node) {
      // The live FSM and the plane-shared membership predicate must agree
      // at every step of every schedule — this is the live-vs-analytic
      // no-drift oracle.
      ASSERT_EQ(cluster.is_crashed(node),
                conditions.churn_down(node, horizon))
          << "schedule " << schedule_name(schedule) << " " << when
          << " horizon " << horizon << " node " << node;
      // advance_lifecycle() must never park a node mid-recovery: the hook
      // runs inside the up-edge, so outside the call RECOVERING is not an
      // observable schedule-driven state.
      ASSERT_NE(cluster.lifecycle(node), gn::NodeLifecycle::kRecovering)
          << "schedule " << schedule_name(schedule) << " " << when
          << " horizon " << horizon << " node " << node;
    }
  };

  check_membership("initially");
  for (int action : schedule) {
    if (action < int(kAdvances.size())) {
      const std::uint64_t iter = kAdvances[std::size_t(action)];
      cluster.advance_lifecycle(iter);
      horizon = std::max(horizon, iter);
    } else {
      const auto to = gn::NodeId(1 + (action - int(kAdvances.size())));
      const bool expect_up = !conditions.churn_down(to, horizon);
      const int before = served[std::size_t(to)];
      const gn::PayloadPtr reply = deliver(cluster, 3, to, horizon);
      ASSERT_EQ(reply != nullptr, expect_up)
          << "schedule " << schedule_name(schedule) << " deliver to " << to
          << " at horizon " << horizon;
      ASSERT_EQ(served[std::size_t(to)], before + (expect_up ? 1 : 0))
          << "schedule " << schedule_name(schedule) << " deliver to " << to
          << " at horizon " << horizon;
    }
    check_membership("after action");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace

TEST(LifecycleModelCheck, SeededDfsOverChurnScheduleInterleavings) {
  const gn::NetworkConditions conditions =
      gn::NetworkConditions::parse(kChurnSpec);
  conditions.validate(4);

  // Enumerate distinct schedules by DFS over the action tree, visiting
  // children in seeded-shuffled order so the explored 12'000-schedule
  // subtree varies with the seed while staying fully reproducible
  // (GARFIELD_MODELCHECK_SEED overrides; the failure message names the
  // exact schedule either way).
  std::uint64_t seed = 20260808;
  if (const char* env = std::getenv("GARFIELD_MODELCHECK_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::mt19937_64 rng(seed);

  std::vector<std::vector<int>> schedules;
  schedules.reserve(kDfsBudget);
  std::vector<int> prefix;
  const std::function<void()> dfs = [&] {
    if (schedules.size() >= kDfsBudget) return;
    if (prefix.size() == kDfsDepth) {
      schedules.push_back(prefix);
      return;
    }
    std::array<int, kDfsAlphabet> order{};
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    for (int action : order) {
      if (schedules.size() >= kDfsBudget) return;
      prefix.push_back(action);
      dfs();
      prefix.pop_back();
    }
  };
  dfs();
  ASSERT_GE(schedules.size(), 10'000u)
      << "the model checker must explore at least 10k distinct schedules";

  for (const std::vector<int>& schedule : schedules) {
    run_churn_schedule(schedule, conditions);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "first violating schedule: " << schedule_name(schedule)
             << " (seed " << seed << ")";
    }
  }
  RecordProperty("schedules_explored", std::to_string(schedules.size()));
  RecordProperty("seed", std::to_string(seed));
}

// ------------------------------------------------------ parked requests

namespace {

/// Wait (bounded) until `pred` holds; the explorers execute each primitive
/// to completion before the next.
template <typename Pred>
bool settle(Pred pred) {
  const auto deadline = gn::Clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (gn::Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

}  // namespace

TEST(LifecycleModelCheck, ParkedRequestRunsOncePerWake) {
  std::atomic<int> runs{0};
  std::atomic<bool> published{false};
  gn::Cluster::Options opt;
  opt.nodes = 2;
  opt.pool_threads = 1;
  gn::Cluster cluster(opt);
  cluster.register_handler(0, "probe", [&](const gn::Request&) {
    runs.fetch_add(1);
    if (!published.load()) return gn::HandlerResult::not_ready();
    return gn::HandlerResult::reply(gn::Payload{1.0F});
  });

  std::promise<gn::PayloadPtr> done;
  std::future<gn::PayloadPtr> reply = done.get_future();
  cluster.call(1, 0, "probe", 0, nullptr,
               [&done](gn::PayloadPtr p) { done.set_value(std::move(p)); },
               std::chrono::seconds(30));
  // Five wakes without a publication: exactly one run each, and nothing
  // in between — no timer re-runs a parked request.
  for (int wakes = 0; wakes <= 5; ++wakes) {
    ASSERT_TRUE(settle([&] { return runs.load() >= 1 + wakes; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(runs.load(), 1 + wakes);
    ASSERT_EQ(reply.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);
    if (wakes < 5) cluster.wake(0);
  }
  published.store(true);
  cluster.wake(0);
  ASSERT_NE(reply.get(), nullptr);
  EXPECT_EQ(runs.load(), 7);
}

namespace {

/// Park-plane alphabet. Every request asks node 0 for a tag; node 0 serves
/// tags up to `published` and parks the rest.
enum ParkOp : int {
  kWake,      // wake(0), nothing new published
  kPublish,   // ++published, then wake(0) — what Server::publish_* do
  kRaceWake,  // wake(0); the first re-run publishes after reading "not
              // published" and before parking — the lost-wakeup window
  kCrash,     // crash(0): parked requests resolve silent through the gate
  kRecover,   // begin_recovery + re-register + complete_recovery (if down)
  kRequest,   // a new pull for the next unpublished tag
  kParkOps
};
enum class ParkEnd { kDeadline, kShutdown };

/// Shadow of one request: its tag and its expected resolution.
struct ShadowCall {
  int tag = 0;
  bool resolved = false;
  bool replied = false;
};

/// What the real cluster did to one request.
struct LiveCall {
  std::atomic<int> resolutions{0};
  std::atomic<int> reply_tag{-1};  // -1: resolved silent (or not yet)
};

struct ParkRun {
  std::string error;  // empty: every invariant held
  bool slow = false;  // the prefix outran the deadline's headroom
};

std::string park_schedule_name(const std::vector<int>& schedule,
                               ParkEnd end) {
  static constexpr const char* kNames[] = {"wake",  "publish", "race",
                                           "crash", "recover", "request"};
  std::string name;
  for (int op : schedule) name += std::string(kNames[op]) + ",";
  return name + (end == ParkEnd::kDeadline ? "deadline" : "shutdown");
}

/// Replay one schedule on a fresh 2-node cluster: two pulls (tags 1, 2)
/// park on node 0, then the ops run, then the ending resolves whatever is
/// still parked. The shadow predicts every handler run and resolution;
/// the live cluster must match it and resolve each request exactly once.
ParkRun run_park_schedule(const std::vector<int>& schedule, ParkEnd end) {
  using std::chrono::milliseconds;
  const gn::Duration timeout = end == ParkEnd::kDeadline
                                   ? gn::Duration(milliseconds(150))
                                   : gn::Duration(std::chrono::seconds(30));
  // Declared before the cluster: handler and callback captures must
  // outlive its teardown flush.
  std::atomic<int> published{0};
  std::atomic<int> runs{0};
  std::atomic<bool> publish_in_run{false};
  std::vector<std::unique_ptr<LiveCall>> live;

  std::vector<ShadowCall> shadow;
  bool up = true;
  int shadow_published = 0;
  int shadow_runs = 0;
  ParkRun out;
  const std::string name = park_schedule_name(schedule, end);
  const auto fail = [&](const std::string& what) {
    if (out.error.empty()) out.error = name + ": " + what;
  };

  auto cluster = std::make_unique<gn::Cluster>([] {
    gn::Cluster::Options opt;
    opt.nodes = 2;
    opt.pool_threads = 1;
    return opt;
  }());
  const auto handler = [&](const gn::Request& req) {
    runs.fetch_add(1);
    const bool ready = int(req.iteration) <= published.load();
    if (publish_in_run.exchange(false)) {
      published.fetch_add(1);
      cluster->wake(0);
    }
    if (!ready) return gn::HandlerResult::not_ready();
    return gn::HandlerResult::reply(gn::Payload{float(req.iteration)});
  };
  cluster->register_handler(0, "probe", handler);
  const auto started = gn::Clock::now();

  // Shadow step shared by wake and publish: every parked request runs once
  // and replies iff its tag is published.
  const auto shadow_wake = [&] {
    for (ShadowCall& c : shadow) {
      if (c.resolved) continue;
      ++shadow_runs;
      if (c.tag <= shadow_published) c.resolved = c.replied = true;
    }
  };
  const auto send_pull = [&](int tag) {
    live.push_back(std::make_unique<LiveCall>());
    LiveCall* call = live.back().get();
    shadow.push_back(ShadowCall{tag});
    if (up) {
      ++shadow_runs;
    } else {
      shadow.back().resolved = true;  // the gate answers silent
    }
    cluster->call(1, 0, "probe", std::uint64_t(tag), nullptr,
                  [call](gn::PayloadPtr p) {
                    if (p) call->reply_tag.store(int((*p)[0]));
                    call->resolutions.fetch_add(1);
                  },
                  timeout);
  };
  // After each primitive: the live cluster reaches the shadow's run count
  // and resolutions, and nothing beyond them.
  const auto check = [&](const char* when) {
    const bool settled = settle([&] {
      if (runs.load() < shadow_runs) return false;
      for (std::size_t i = 0; i < shadow.size(); ++i) {
        if (shadow[i].resolved && live[i]->resolutions.load() == 0) {
          return false;
        }
      }
      return true;
    });
    if (!settled) fail(std::string("did not settle ") + when);
    if (runs.load() != shadow_runs) {
      fail(std::string("handler runs ") + std::to_string(runs.load()) +
           " != " + std::to_string(shadow_runs) + " " + when);
    }
    for (std::size_t i = 0; i < shadow.size(); ++i) {
      const int resolutions = live[i]->resolutions.load();
      if (resolutions != (shadow[i].resolved ? 1 : 0)) {
        fail("request " + std::to_string(i) + " resolved " +
             std::to_string(resolutions) + "x " + when);
      }
      if (shadow[i].resolved && resolutions == 1 &&
          (live[i]->reply_tag.load() == shadow[i].tag) != shadow[i].replied) {
        fail("request " + std::to_string(i) + " got the wrong answer " +
             when);
      }
    }
  };

  send_pull(1);
  send_pull(2);
  check("after the initial pulls");
  for (int op : schedule) {
    switch (op) {
      case kWake:
        cluster->wake(0);
        if (up) shadow_wake();
        break;
      case kPublish:
        published.fetch_add(1);
        ++shadow_published;
        cluster->wake(0);
        if (up) shadow_wake();
        break;
      case kRaceWake: {
        // The first parked request's re-run reads the old publication,
        // publishes, and must then run again instead of parking; the rest
        // of the woken batch runs once after the publication.
        const auto parked = std::find_if(
            shadow.begin(), shadow.end(),
            [](const ShadowCall& c) { return !c.resolved; });
        if (up && parked != shadow.end()) {
          publish_in_run.store(true);
          ++shadow_published;
          ++shadow_runs;  // the stale run
        }
        cluster->wake(0);
        if (up) shadow_wake();
        break;
      }
      case kCrash:
        cluster->crash(0);
        up = false;
        for (ShadowCall& c : shadow) c.resolved = true;
        break;
      case kRecover:
        if (!up) {
          cluster->begin_recovery(0);
          cluster->register_handler(0, "probe", handler);
          cluster->complete_recovery(0);
          up = true;
        }
        break;
      default:
        send_pull(shadow_published + 1);
        break;
    }
    check("after an op");
  }
  out.slow = gn::Clock::now() - started >= timeout / 2;
  if (end == ParkEnd::kDeadline) {
    // Every request still parked resolves silent at its deadline, and no
    // timer re-ran a handler on the way there.
    for (ShadowCall& c : shadow) c.resolved = true;
    check("at the deadline");
  } else {
    cluster.reset();  // the teardown flush resolves the parked requests
    for (ShadowCall& c : shadow) c.resolved = true;
    check("at shutdown");
  }
  cluster.reset();
  check("after teardown");
  return out;
}

}  // namespace

TEST(LifecycleModelCheck, ParkedRequestsResolveExactlyOnceInEveryInterleaving) {
  // Shutdown endings: every sequence of 4 ops (6^4 = 1296 schedules).
  // Deadline endings: every sequence of 3 ops (6^3 = 216), run in small
  // concurrent batches since each waits out a 150 ms deadline.
  const auto schedules_of = [](int depth) {
    std::vector<std::vector<int>> all;
    int total = 1;
    for (int d = 0; d < depth; ++d) total *= kParkOps;
    for (int code = 0; code < total; ++code) {
      std::vector<int> schedule(std::size_t(depth), 0);
      int rest = code;
      for (int& op : schedule) {
        op = rest % kParkOps;
        rest /= kParkOps;
      }
      all.push_back(std::move(schedule));
    }
    return all;
  };
  // A schedule whose prefix ate half the deadline's headroom (an
  // overloaded machine) could expire a request early; it reruns instead
  // of failing, and a failure on an unhurried run is final.
  const auto run_checked = [](const std::vector<int>& schedule, ParkEnd end) {
    ParkRun run;
    for (int attempt = 0; attempt < 3; ++attempt) {
      run = run_park_schedule(schedule, end);
      if (run.error.empty() || !run.slow) break;
    }
    return run.error;
  };

  std::size_t explored = 0;
  for (const std::vector<int>& schedule : schedules_of(4)) {
    const std::string error = run_checked(schedule, ParkEnd::kShutdown);
    ASSERT_TRUE(error.empty()) << error;
    ++explored;
  }
  const std::vector<std::vector<int>> deadline_schedules = schedules_of(3);
  constexpr std::size_t kBatch = 16;
  for (std::size_t lo = 0; lo < deadline_schedules.size(); lo += kBatch) {
    std::vector<std::future<std::string>> batch;
    for (std::size_t i = lo;
         i < std::min(lo + kBatch, deadline_schedules.size()); ++i) {
      batch.push_back(std::async(std::launch::async, run_checked,
                                 deadline_schedules[i], ParkEnd::kDeadline));
    }
    for (auto& result : batch) {
      const std::string error = result.get();
      EXPECT_TRUE(error.empty()) << error;
      ++explored;
    }
  }
  EXPECT_EQ(explored, 1512u);
  RecordProperty("schedules_explored", std::to_string(explored));
}

TEST(LifecycleModelCheck, NeverReadyRedeliveryGivesUpAtTheDeadline) {
  std::atomic<int> attempts{0};
  gn::Cluster::Options opt;
  opt.nodes = 2;
  opt.pool_threads = 1;
  gn::Cluster cluster(opt);

  cluster.register_handler(0, "probe", [&attempts](const gn::Request&) {
    ++attempts;
    return gn::HandlerResult::not_ready();
  });

  // A callee that never becomes ready must resolve the caller with nullptr
  // once the next retry would land past the deadline — the chain
  // terminates, it does not poll forever (and the doubling backoff bounds
  // the attempt count well below timeout/floor).
  const auto start = gn::Clock::now();
  const gn::PayloadPtr reply = deliver(cluster, 1, 0, /*iteration=*/0,
                                       std::chrono::milliseconds(5));
  const auto elapsed = gn::Clock::now() - start;
  EXPECT_EQ(reply, nullptr);
  EXPECT_GE(attempts.load(), 1);
  EXPECT_LE(attempts.load(), 64);
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

// ------------------------------------------- deterministic floor abort

TEST(LifecycleModelCheck, BelowFloorAbortIsDeterministic) {
  // multi_krum needs min_n = 2f+3 = 5 at fw=1; permanently crashing all
  // five workers' quorum down to 4 voids the (n, f) bound. The abort must
  // not only fire — it must fire with a byte-identical diagnostic on every
  // run, or churn CI triage turns into flaky-log archaeology.
  const auto run_once = []() -> std::string {
    gc::DeploymentConfig cfg;
    cfg.deployment = gc::Deployment::kSsmw;
    cfg.model = "tiny_mlp";
    cfg.dataset = "cluster";
    cfg.train_size = 256;
    cfg.test_size = 64;
    cfg.batch_size = 8;
    cfg.nw = 5;
    cfg.fw = 1;
    cfg.gradient_gar = "multi_krum";
    cfg.iterations = 4;
    cfg.eval_every = 1;
    cfg.seed = 20260808;
    cfg.asynchronous = false;  // q = nw = 5 passes config validation
    cfg.network = "churn:crash=5,at_iter=2";
    cfg.validate();
    try {
      (void)gc::train(cfg);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return {};
  };

  garfield::tensor::set_parallel_threads(1);
  const std::string first = run_once();
  const std::string second = run_once();
  garfield::tensor::set_parallel_threads(0);

  ASSERT_FALSE(first.empty())
      << "a schedule below the GAR floor must abort the run";
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("resilience floor"), std::string::npos) << first;
  EXPECT_NE(first.find("min_n=5"), std::string::npos) << first;
}
