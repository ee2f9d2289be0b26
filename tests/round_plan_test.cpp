// The round loop's bitwise contract.
//
// Every deployment runs one iteration skeleton — pull gradients with a
// quorum, apply a GAR, publish, optionally exchange and aggregate again —
// and the constants below pin what that skeleton computes:
//   - the FNV-1a digest of TrainResult::final_parameters for one
//     synchronous in-process cell per deployment, plus one churn
//     crash-and-recover cell per deployment;
//   - the analytic simulator's iteration breakdown on a deployment x
//     synchrony x conditions grid, as exact hexfloats.
// The values were captured from the five hand-written per-deployment
// loops that preceded the plan-driven loop; a refactor of the loop or of
// the plan builder must leave every one of them untouched.
//
// Also pinned: crash-tolerant primary failover through a churn clause
// (the backup's model and curve carry the run), the loud abort when a
// schedule leaves no driver up to report, and the plan shapes themselves.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/round_plan.h"
#include "core/trainer.h"
#include "net/conditions.h"
#include "sim/deployment_sim.h"
#include "tensor/parallel.h"

namespace gc = garfield::core;
namespace gs = garfield::sim;

namespace {

std::string digest(const std::vector<float>& params) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(params.data());
  for (std::size_t i = 0; i < params.size() * sizeof(float); ++i) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string hexf(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("garfield_plan_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

gc::DeploymentConfig base(gc::Deployment d) {
  gc::DeploymentConfig cfg;
  cfg.deployment = d;
  cfg.model = "tiny_mlp";
  cfg.dataset = "cluster";
  cfg.train_size = 256;
  cfg.test_size = 64;
  cfg.batch_size = 8;
  cfg.nw = 4;
  cfg.iterations = 24;
  cfg.eval_every = 6;
  cfg.seed = 20261018;
  return cfg;
}

gc::DeploymentConfig vanilla() { return base(gc::Deployment::kVanilla); }

gc::DeploymentConfig crash_tolerant() {
  gc::DeploymentConfig cfg = base(gc::Deployment::kCrashTolerant);
  cfg.nps = 3;
  return cfg;
}

gc::DeploymentConfig ssmw() {
  gc::DeploymentConfig cfg = base(gc::Deployment::kSsmw);
  cfg.nw = 6;
  cfg.fw = 1;
  cfg.gradient_gar = "multi_krum";
  return cfg;
}

gc::DeploymentConfig msmw() {
  gc::DeploymentConfig cfg = base(gc::Deployment::kMsmw);
  cfg.nw = 6;
  cfg.fw = 1;
  cfg.nps = 4;
  cfg.fps = 1;
  cfg.gradient_gar = "multi_krum";
  cfg.model_gar = "median";
  cfg.worker_attack = "reversed";
  cfg.server_attack = "reversed";
  return cfg;
}

gc::DeploymentConfig decentralized() {
  // fw = 0: a peer awaits nw - fw replies, and only the full quorum is
  // a deterministic cut.
  gc::DeploymentConfig cfg = base(gc::Deployment::kDecentralized);
  cfg.nw = 5;
  cfg.fw = 0;
  cfg.gradient_gar = "median";
  cfg.model_gar = "median";
  cfg.non_iid = true;
  cfg.contraction_steps = 2;
  return cfg;
}

/// Run with one kernel thread so the serial and parallel ctest variants
/// exercise the same code path (they are bitwise identical anyway).
gc::TrainResult run(const gc::DeploymentConfig& cfg) {
  garfield::tensor::set_parallel_threads(1);
  gc::TrainResult r = gc::train(cfg);
  garfield::tensor::set_parallel_threads(0);
  return r;
}

/// A recovering server replica needs a checkpoint to transfer from.
gc::TrainResult run_checkpointed(gc::DeploymentConfig cfg,
                                 const std::string& name) {
  cfg.checkpoint_path = temp_path(name);
  cfg.checkpoint_every = 1;
  gc::TrainResult r = run(cfg);
  std::filesystem::remove(cfg.checkpoint_path);
  return r;
}

}  // namespace

// ------------------------------------------------- live golden digests

TEST(RoundPlanGolden, Vanilla) {
  EXPECT_EQ(digest(run(vanilla()).final_parameters), "a8daad548761b3fb");
}

TEST(RoundPlanGolden, CrashTolerant) {
  EXPECT_EQ(digest(run(crash_tolerant()).final_parameters), "a8daad548761b3fb");
}

TEST(RoundPlanGolden, SsmwMultiKrum) {
  EXPECT_EQ(digest(run(ssmw()).final_parameters), "1cb0a7414cac35ae");
}

TEST(RoundPlanGolden, MsmwUnderReversedAttacks) {
  EXPECT_EQ(digest(run(msmw()).final_parameters), "dbd7311b1f4e853c");
}

TEST(RoundPlanGolden, DecentralizedWithContraction) {
  EXPECT_EQ(digest(run(decentralized()).final_parameters), "8c404c443a3b723f");
}

TEST(RoundPlanGolden, VanillaWorkerCrashRecovers) {
  gc::DeploymentConfig cfg = vanilla();
  cfg.network = "churn:crash=2,at_iter=5,recover_after=5";
  EXPECT_EQ(digest(run(cfg).final_parameters), "afa48d6202c3d0c2");
}

TEST(RoundPlanGolden, CrashTolerantBackupCrashRecovers) {
  gc::DeploymentConfig cfg = crash_tolerant();
  cfg.network = "churn:crash=1,at_iter=5,recover_after=5";
  EXPECT_EQ(digest(run_checkpointed(cfg, "ct.ckpt").final_parameters),
            "a8daad548761b3fb");
}

TEST(RoundPlanGolden, SsmwWorkerCrashRecovers) {
  gc::DeploymentConfig cfg = ssmw();
  cfg.network = "churn:crash=3,at_iter=5,recover_after=5";
  EXPECT_EQ(digest(run(cfg).final_parameters), "ec163e149611fdef");
}

TEST(RoundPlanGolden, MsmwServerCrashRecovers) {
  gc::DeploymentConfig cfg = msmw();
  cfg.network = "churn:crash=1,at_iter=5,recover_after=5";
  EXPECT_EQ(digest(run_checkpointed(cfg, "msmw.ckpt").final_parameters),
            "dbd7311b1f4e853c");
}

TEST(RoundPlanGolden, DecentralizedPeerCrashRecovers) {
  gc::DeploymentConfig cfg = decentralized();
  cfg.network = "churn:crash=2,at_iter=5,recover_after=5";
  EXPECT_EQ(digest(run(cfg).final_parameters), "957a9fbb643290d8");
}

TEST(RoundPlanChurn, DecentralizedPeerRecoveryNeverWaitsOutThePullDeadline) {
  // A lagging peer's pull for a pre-crash iteration can reach the recovered
  // peer, which resumes past it and never publishes it. Declined at the
  // rejoin floor, that pull costs nothing; left waiting for a publication
  // it would hold the lagging peer — and, through it, the recovered one —
  // for the whole 30 s pull deadline. Whether a pull lands there is timing,
  // so the cell repeats.
  gc::DeploymentConfig cfg = decentralized();
  cfg.network = "churn:crash=2,at_iter=5,recover_after=5";
  for (int repeat = 0; repeat < 8; ++repeat) {
    const auto start = std::chrono::steady_clock::now();
    const std::string d = digest(run(cfg).final_parameters);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(d, "957a9fbb643290d8") << "repeat " << repeat;
    EXPECT_LT(elapsed, std::chrono::seconds(5)) << "repeat " << repeat;
  }
}

// ------------------------------------------------ reporter and failover

TEST(RoundPlanFailover, CrashTolerantPrimaryFailsOverThroughChurn) {
  // The primary fail-stops at iteration 12 and never returns; the backup
  // replicas averaged the same gradients all along, so the lowest-id one
  // still up reports the uncrashed run's model, accuracy and all.
  const gc::TrainResult uncrashed = run(crash_tolerant());
  gc::DeploymentConfig cfg = crash_tolerant();
  cfg.network = "churn:crash=0,at_iter=12";
  const gc::TrainResult failover = run(cfg);
  EXPECT_EQ(digest(failover.final_parameters), "a8daad548761b3fb");
  ASSERT_FALSE(failover.curve.empty());
  EXPECT_EQ(failover.curve.back().iteration, cfg.iterations - 1);
  ASSERT_EQ(failover.curve.size(), uncrashed.curve.size());
  for (std::size_t i = 0; i < failover.curve.size(); ++i) {
    EXPECT_EQ(failover.curve[i].iteration, uncrashed.curve[i].iteration);
    EXPECT_EQ(failover.curve[i].accuracy, uncrashed.curve[i].accuracy);
  }
  EXPECT_EQ(failover.final_accuracy, uncrashed.final_accuracy);
  EXPECT_EQ(failover.reporting_gradient_counts.size(), cfg.iterations);
}

TEST(RoundPlanFailover, NoDriverUpAbortsWithADiagnostic) {
  // SSMW has one driver: a permanent crash — or a crash window, even one
  // it recovers from — leaves iterations nobody aggregates or reports.
  for (const char* spec : {"churn:crash=0,at_iter=10",
                           "churn:crash=0,at_iter=10,recover_after=4"}) {
    gc::DeploymentConfig cfg = ssmw();
    cfg.network = spec;
    cfg.checkpoint_path = temp_path("dead.ckpt");
    cfg.checkpoint_every = 1;
    try {
      (void)run(cfg);
      FAIL() << spec << ": a schedule with no driver up must abort";
    } catch (const std::runtime_error& e) {
      garfield::tensor::set_parallel_threads(0);
      const std::string what = e.what();
      EXPECT_NE(what.find("no replica would aggregate or report"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("iteration 10"), std::string::npos) << what;
    }
    std::filesystem::remove(cfg.checkpoint_path);
  }
}

// ------------------------------------------------------------ plan shapes

TEST(RoundPlanShape, VanillaAndCrashTolerantAreAveragingSsmw) {
  const gc::RoundPlan v = gc::round_plan(vanilla());
  EXPECT_EQ(v.drivers, 1u);
  EXPECT_EQ(v.gradients.gar, "average");
  EXPECT_EQ(v.gradients.lo, 1u);
  EXPECT_EQ(v.gradients.hi, 5u);
  EXPECT_EQ(v.gradients.q, 4u);
  EXPECT_FALSE(v.models);
  EXPECT_EQ(v.short_quorum, gc::ShortQuorum::kSkipRound);
  const gc::RoundPlan ct = gc::round_plan(crash_tolerant());
  EXPECT_EQ(ct.drivers, 3u);
  EXPECT_EQ(ct.gradients.lo, 3u);
  EXPECT_EQ(ct.gradients.gar, "average");
}

TEST(RoundPlanShape, MsmwAndDecentralizedExchangeModels) {
  gc::DeploymentConfig m = msmw();
  m.asynchronous = true;
  const gc::RoundPlan p = gc::round_plan(m);
  EXPECT_EQ(p.drivers, 4u);
  EXPECT_EQ(p.gradients.q, 5u);  // nw - fw
  ASSERT_TRUE(p.models);
  EXPECT_EQ(p.models->q, 2u);    // nps - fps peers, own state excluded
  EXPECT_EQ(p.models->inputs(), 3u);
  EXPECT_EQ(p.short_quorum, gc::ShortQuorum::kExchangeModels);

  const gc::RoundPlan d = gc::round_plan(decentralized());
  EXPECT_EQ(d.drivers, 5u);
  EXPECT_EQ(d.gradients.q, 5u);
  EXPECT_EQ(d.gossip_rounds, 2u);
  EXPECT_EQ(d.gossip.q, 4u);
  ASSERT_TRUE(d.models);
  EXPECT_EQ(d.models->inputs(), 5u);
  EXPECT_EQ(d.short_quorum, gc::ShortQuorum::kPublishSkips);
}

TEST(RoundPlanShape, ReporterIsTheLowestDriverUp) {
  const gc::RoundPlan p = gc::round_plan(crash_tolerant());
  const auto c = garfield::net::NetworkConditions::parse(
      "churn:crash=0,at_iter=3;churn:crash=1,at_iter=5,recover_after=2");
  EXPECT_EQ(gc::reporter_at(p, c, 2), 0u);
  EXPECT_EQ(gc::reporter_at(p, c, 3), 1u);
  EXPECT_EQ(gc::reporter_at(p, c, 5), 2u);
  EXPECT_EQ(gc::reporter_at(p, c, 7), 1u);
  const auto all = garfield::net::NetworkConditions::parse(
      "churn:crash=0,at_iter=1;churn:crash=1,at_iter=1;"
      "churn:crash=2,at_iter=1");
  EXPECT_FALSE(gc::reporter_at(p, all, 1));
}

// ------------------------------------------------ simulator golden grid

TEST(RoundPlanGolden, SimulatorBreakdownGrid) {
  struct Cell {
    gs::SimDeployment deployment;
    bool asynchronous;
    const char* network;
    std::size_t contraction_steps;
    const char* computation;
    const char* communication;
    const char* aggregation;
  };
  const char* kIdeal = "";
  const char* kSlow = "straggler:nodes=5,lag=50ms;wan:jitter=2ms";
  const char* kChurn =
      "churn:crash=6,at_iter=0,recover_after=3;hetero:slow_links=1-2,factor=4";
  using D = gs::SimDeployment;
  const Cell cells[] = {
      {D::kVanilla, false, kIdeal, 0,
       "0x1.45b81a2509cdep-2", "0x1.28db8bac710ccp-4", "0x1.89374bc6a7efap-11"},
      {D::kVanilla, false, kSlow, 0,
       "0x1.45b81a2509cdep-2", "0x1.fd07c84b5dcc6p-4", "0x1.89374bc6a7efap-11"},
      {D::kVanilla, false, kChurn, 0,
       "0x1.45b81a2509cdep-2", "0x1.28db8bac710ccp-4", "0x1.89374bc6a7efap-11"},
      {D::kVanilla, true, kIdeal, 0,
       "0x1.45b81a2509cdep-2", "0x1.09a8e448a2bf7p-4", "0x1.54c985f06f694p-11"},
      {D::kVanilla, true, kSlow, 0,
       "0x1.45b81a2509cdep-2", "0x1.0f64e5ec10ee2p-4", "0x1.54c985f06f694p-11"},
      {D::kVanilla, true, kChurn, 0,
       "0x1.45b81a2509cdep-2", "0x1.09a8e448a2bf7p-4", "0x1.54c985f06f694p-11"},
      {D::kCrashTolerant, false, kIdeal, 0,
       "0x1.45b81a2509cdep-2", "0x1.55182a9930be1p-4", "0x1.89374bc6a7efap-11"},
      {D::kCrashTolerant, false, kSlow, 0,
       "0x1.45b81a2509cdep-2", "0x1.14a2339c0ebeep-3", "0x1.89374bc6a7efap-11"},
      {D::kCrashTolerant, false, kChurn, 0,
       "0x1.45b81a2509cdep-2", "0x1.55182a9930be1p-4", "0x1.89374bc6a7efap-11"},
      {D::kCrashTolerant, true, kIdeal, 0,
       "0x1.45b81a2509cdep-2", "0x1.2c10ee1d37d7ap-4", "0x1.54c985f06f694p-11"},
      {D::kCrashTolerant, true, kSlow, 0,
       "0x1.45b81a2509cdep-2", "0x1.31ccefc0a6064p-4", "0x1.54c985f06f694p-11"},
      {D::kCrashTolerant, true, kChurn, 0,
       "0x1.45b81a2509cdep-2", "0x1.2c10ee1d37d7ap-4", "0x1.54c985f06f694p-11"},
      {D::kSsmw, false, kIdeal, 0,
       "0x1.45b81a2509cdep-2", "0x1.28db8bac710ccp-4", "0x1.a1cac083126e9p-8"},
      {D::kSsmw, false, kSlow, 0,
       "0x1.45b81a2509cdep-2", "0x1.fd07c84b5dcc6p-4", "0x1.a1cac083126e9p-8"},
      {D::kSsmw, false, kChurn, 0,
       "0x1.45b81a2509cdep-2", "0x1.28db8bac710ccp-4", "0x1.a1cac083126e9p-8"},
      {D::kSsmw, true, kIdeal, 0,
       "0x1.45b81a2509cdep-2", "0x1.09a8e448a2bf7p-4", "0x1.04816f0068db9p-8"},
      {D::kSsmw, true, kSlow, 0,
       "0x1.45b81a2509cdep-2", "0x1.0f64e5ec10ee2p-4", "0x1.04816f0068db9p-8"},
      {D::kSsmw, true, kChurn, 0,
       "0x1.45b81a2509cdep-2", "0x1.09a8e448a2bf7p-4", "0x1.04816f0068db9p-8"},
      {D::kMsmw, false, kIdeal, 0,
       "0x1.45b81a2509cdep-2", "0x1.dbd194237fa8ap-4", "0x1.dcc63f141205bp-8"},
      {D::kMsmw, false, kSlow, 0,
       "0x1.45b81a2509cdep-2", "0x1.5b1156f8c384p-3", "0x1.dcc63f141205bp-8"},
      {D::kMsmw, false, kChurn, 0,
       "0x1.45b81a2509cdep-2", "0x1.298191f44215p-3", "0x1.dcc63f141205bp-8"},
      {D::kMsmw, true, kIdeal, 0,
       "0x1.45b81a2509cdep-2", "0x1.b2ca57a786c22p-4", "0x1.35a858793dd98p-8"},
      {D::kMsmw, true, kSlow, 0,
       "0x1.45b81a2509cdep-2", "0x1.bc9eecbfb15b6p-4", "0x1.35a858793dd98p-8"},
      {D::kMsmw, true, kChurn, 0,
       "0x1.45b81a2509cdep-2", "0x1.14fdf3b645a1cp-3", "0x1.35a858793dd98p-8"},
      {D::kDecentralized, false, kIdeal, 0,
       "0x1.45b81a2509cdep-2", "0x1.dc3a6faf2c19bp-4", "0x1.5cfaacd9e83e4p-8"},
      {D::kDecentralized, false, kSlow, 0,
       "0x1.45b81a2509cdep-2", "0x1.e8f8ac36cb9dep-4", "0x1.5cfaacd9e83e4p-8"},
      {D::kDecentralized, false, kChurn, 0,
       "0x1.45b81a2509cdep-2", "0x1.14f536bff743p-2", "0x1.5cfaacd9e83e4p-8"},
      {D::kDecentralized, false, kChurn, 2,
       "0x1.45b81a2509cdep-2", "0x1.14f536bff743p-1", "0x1.b2fec56d5cfacp-7"},
      {D::kDecentralized, true, kIdeal, 0,
       "0x1.45b81a2509cdep-2", "0x1.dc3a6faf2c19bp-4", "0x1.5cfaacd9e83e4p-8"},
      {D::kDecentralized, true, kSlow, 0,
       "0x1.45b81a2509cdep-2", "0x1.e8f8ac36cb9dep-4", "0x1.5cfaacd9e83e4p-8"},
      {D::kDecentralized, true, kChurn, 0,
       "0x1.45b81a2509cdep-2", "0x1.14f536bff743p-2", "0x1.5cfaacd9e83e4p-8"},
      {D::kDecentralized, true, kChurn, 2,
       "0x1.45b81a2509cdep-2", "0x1.14f536bff743p-1", "0x1.b2fec56d5cfacp-7"},
  };
  for (const Cell& c : cells) {
    gs::SimSetup s;
    s.deployment = c.deployment;
    s.d = 1'000'000;
    s.batch_size = 32;
    s.nw = 9;
    s.fw = 2;
    s.nps = 4;
    s.fps = 1;
    s.gradient_gar = "multi_krum";
    s.model_gar = "median";
    s.asynchronous = c.asynchronous;
    s.contraction_steps = c.contraction_steps;
    s.conditions = garfield::net::NetworkConditions::parse(c.network);
    s.iteration = 1;
    const gs::IterationBreakdown b = gs::simulate_iteration(s);
    const std::string what = gs::to_string(c.deployment) +
                             (c.asynchronous ? " async " : " sync ") +
                             c.network + " contraction=" +
                             std::to_string(c.contraction_steps);
    EXPECT_EQ(hexf(b.computation), c.computation) << what;
    EXPECT_EQ(hexf(b.communication), c.communication) << what;
    EXPECT_EQ(hexf(b.aggregation), c.aggregation) << what;
  }
}

TEST(RoundPlanGolden, SimulatorRuntimeVariants) {
  // Native runtimes, per-layer pipelining and the slowdown baseline (which
  // re-plans the setup as native vanilla) on the paper's CPU shape.
  gs::SimSetup s;
  s.d = 1'000'000;
  s.gradient_gar = "multi_krum";
  s.model_gar = "median";
  s.contraction_steps = 1;
  std::string got;
  for (gs::SimDeployment d :
       {gs::SimDeployment::kVanilla, gs::SimDeployment::kCrashTolerant,
        gs::SimDeployment::kSsmw, gs::SimDeployment::kMsmw,
        gs::SimDeployment::kDecentralized}) {
    s.deployment = d;
    for (int variant = 0; variant < 3; ++variant) {
      s.native_runtime = variant == 1;
      s.pipelined = variant == 2;
      got += hexf(gs::simulate_iteration(s).total()) + " ";
    }
    s.native_runtime = false;
    s.pipelined = false;
    got += hexf(gs::slowdown_vs_vanilla(s)) + "\n";
  }
  EXPECT_EQ(got,
            "0x1.c995b21b3538cp-2 0x1.82c131fbc0288p-2 0x1.97dde123899fap-2 "
            "0x1.2a9a4516685dcp+0\n"
            "0x1.e84e0406ba578p-2 0x1.921d5af182b7ep-2 0x1.b696330f0ebe7p-2 "
            "0x1.3ea63acafb88p+0\n"
            "0x1.da18c489ccc61p-2 0x1.8467e706cf503p-2 0x1.9b2b4b39a7ef2p-2 "
            "0x1.3560b2c111114p+0\n"
            "0x1.239275a828e0fp-1 0x1.b5a907628f6a7p-2 0x1.03ad9f4707cb9p-1 "
            "0x1.7c89bade6e3c7p+0\n"
            "0x1.cdee7baa1236ep-1 0x1.3d9c9024f37e8p-1 0x1.a6636e12232f1p-1 "
            "0x1.2d706ede939a9p+1\n");
}
