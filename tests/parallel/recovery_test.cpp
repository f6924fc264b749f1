// Checkpoint/restore and rank-failure recovery semantics of the
// distributed driver, exercised in-process: a restored run must continue
// the trajectory of an uninterrupted one, and the supervisor must
// survive an injected fault by replaying from the last snapshot.  (The
// real process-kill path over TCP is the app-level kill-and-recover
// test; in-process ranks have no dead-peer detection, so here faults
// surface as thrown errors.)

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/fault.hpp"
#include "md/builders.hpp"
#include "md/units.hpp"
#include "net/inproc.hpp"
#include "parallel/parallel_engine.hpp"
#include "parallel/supervisor.hpp"
#include "potentials/vashishta.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace scmd {
namespace {

constexpr double kDt = 1.0 * units::kFemtosecond;

ParticleSystem build_initial() {
  Rng rng(88);
  return make_silica(1500, 2.2, 350.0, rng);
}

std::string fresh_dir(const std::string& stem) {
  const std::string dir =
      "/tmp/" + stem + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

/// Scoped environment variable (the fault plan is env-driven).
class EnvGuard {
 public:
  EnvGuard(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(name_); }

 private:
  const char* name_;
};

void expect_positions_match(const ParticleSystem& a, const ParticleSystem& b,
                            double tol) {
  ASSERT_EQ(a.num_atoms(), b.num_atoms());
  for (int i = 0; i < a.num_atoms(); ++i) {
    EXPECT_NEAR(a.positions()[i].x, b.positions()[i].x, tol) << i;
    EXPECT_NEAR(a.positions()[i].y, b.positions()[i].y, tol) << i;
    EXPECT_NEAR(a.positions()[i].z, b.positions()[i].z, tol) << i;
    EXPECT_NEAR(a.velocities()[i].x, b.velocities()[i].x, tol) << i;
  }
}

TEST(RecoveryTest, RestoredRunContinuesTheTrajectory) {
  const VashishtaSiO2 field;
  const ProcessGrid grid = ProcessGrid::factor(4);
  const std::string dir = fresh_dir("scmd_recovery_restore");

  // Uninterrupted 10-step reference.
  ParticleSystem ref = build_initial();
  ParallelRunConfig ref_cfg;
  ref_cfg.dt = kDt;
  ref_cfg.num_steps = 10;
  run_parallel_md(ref, field, "SC", grid, ref_cfg);

  // Interrupted run: 6 steps with snapshots every 3.
  ParticleSystem first_sys = build_initial();
  ParallelRunConfig first_cfg = ref_cfg;
  first_cfg.num_steps = 6;
  first_cfg.durability.checkpoint_every = 3;
  first_cfg.durability.checkpoint_dir = dir;
  const ParallelRunResult first =
      run_parallel_md(first_sys, field, "SC", grid, first_cfg);
  EXPECT_EQ(first.snapshots_written, 2);
  EXPECT_EQ(first.restored_step, 0);

  // Resumed run: restore the step-6 snapshot, continue to step 10.
  ParticleSystem resumed_sys = build_initial();
  ParallelRunConfig resumed_cfg = first_cfg;
  resumed_cfg.num_steps = 10;
  resumed_cfg.durability.restore = true;
  const ParallelRunResult resumed =
      run_parallel_md(resumed_sys, field, "SC", grid, resumed_cfg);
  EXPECT_EQ(resumed.restored_step, 6);

  expect_positions_match(resumed_sys, ref, 5e-8);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, ExplicitRestorePathWinsOverLatest) {
  const VashishtaSiO2 field;
  const ProcessGrid grid({1, 1, 1});
  const std::string dir = fresh_dir("scmd_recovery_explicit");
  ParticleSystem sys = build_initial();
  ParallelRunConfig cfg;
  cfg.dt = kDt;
  cfg.num_steps = 4;
  cfg.durability.checkpoint_every = 2;
  cfg.durability.checkpoint_dir = dir;
  run_parallel_md(sys, field, "SC", grid, cfg);  // snapshots at steps 2, 4

  ParticleSystem resumed = build_initial();
  ParallelRunConfig rcfg = cfg;
  rcfg.num_steps = 6;
  rcfg.durability.restore = true;
  rcfg.durability.restore_path =
      ckpt::CheckpointDir(dir, 3).path_for_step(2);
  const ParallelRunResult res =
      run_parallel_md(resumed, field, "SC", grid, rcfg);
  EXPECT_EQ(res.restored_step, 2);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, RestoreWithEmptyDirStartsFresh) {
  const VashishtaSiO2 field;
  const std::string dir = fresh_dir("scmd_recovery_fresh");
  std::filesystem::create_directories(dir);
  ParticleSystem sys = build_initial();
  ParallelRunConfig cfg;
  cfg.dt = kDt;
  cfg.num_steps = 3;
  cfg.durability.checkpoint_every = 2;
  cfg.durability.checkpoint_dir = dir;
  cfg.durability.restore = true;  // nothing to restore yet
  const ParallelRunResult res =
      run_parallel_md(sys, field, "SC", ProcessGrid({1, 1, 1}), cfg);
  EXPECT_EQ(res.restored_step, 0);
  EXPECT_GT(res.snapshots_written, 0);
  std::filesystem::remove_all(dir);
}

/// Single-rank in-process endpoint that owns its Cluster, so the
/// supervisor's make_transport factory can mint one per attempt.
class SoloTransport final : public Transport {
 public:
  SoloTransport() : cluster_(1) {}

  int rank() const override { return 0; }
  int num_ranks() const override { return 1; }
  void send(int dst, int tag, Bytes payload) override {
    cluster_.transport(0).send(dst, tag, std::move(payload));
  }
  Bytes recv(int src, int tag) override {
    return cluster_.transport(0).recv(src, tag);
  }
  void barrier() override {}
  double allreduce_sum(double v) override { return v; }
  double allreduce_max(double v) override { return v; }
  TransportStats stats() const override {
    return cluster_.transport(0).stats();
  }

 private:
  mutable Cluster cluster_;
};

TEST(RecoveryTest, SupervisorReplaysFromLastSnapshotAfterFault) {
  const std::string dir = fresh_dir("scmd_recovery_supervised");
  const std::string token = dir + "_token";
  std::filesystem::remove(token);
  // Kill rank 0 after step 4 completes — before the step-4 snapshot is
  // cut, so recovery resumes from the step-2 one.  The token makes the
  // fault fire exactly once; without it the replay would die forever.
  EnvGuard kill_at("SCMD_FAULT_KILL_AT_STEP", "4");
  EnvGuard kill_rank("SCMD_FAULT_KILL_RANK", "0");
  EnvGuard token_env("SCMD_FAULT_TOKEN", token);

  const VashishtaSiO2 field;
  ParticleSystem sys = build_initial();
  ParallelRunConfig cfg;
  cfg.dt = kDt;
  cfg.num_steps = 8;
  cfg.durability.checkpoint_every = 2;
  cfg.durability.checkpoint_dir = dir;
  SupervisorConfig sup;
  sup.max_recoveries = 2;
  sup.backoff_s = 0.0;
  sup.make_transport = [] { return std::make_unique<SoloTransport>(); };

  const ParallelRunResult res = run_parallel_md_supervised(
      sys, field, "SC", ProcessGrid({1, 1, 1}), cfg, sup);
  EXPECT_EQ(res.recoveries, 1);
  EXPECT_EQ(res.restored_step, 2);
  EXPECT_TRUE(std::filesystem::exists(token));

  // The recovered trajectory must match an unfaulted run.
  ParticleSystem ref = build_initial();
  ParallelRunConfig ref_cfg;
  ref_cfg.dt = kDt;
  ref_cfg.num_steps = 8;
  run_parallel_md(ref, field, "SC", ProcessGrid({1, 1, 1}), ref_cfg);
  expect_positions_match(sys, ref, 5e-8);

  std::filesystem::remove_all(dir);
  std::filesystem::remove(token);
}

TEST(RecoveryTest, SupervisorGivesUpAfterBudget) {
  const std::string dir = fresh_dir("scmd_recovery_exhausted");
  // No token: the fault re-fires on every replay, so a budget of 1
  // recovery must end in the error propagating out.
  EnvGuard kill_at("SCMD_FAULT_KILL_AT_STEP", "3");
  EnvGuard kill_rank("SCMD_FAULT_KILL_RANK", "0");

  const VashishtaSiO2 field;
  ParticleSystem sys = build_initial();
  ParallelRunConfig cfg;
  cfg.dt = kDt;
  cfg.num_steps = 6;
  cfg.durability.checkpoint_every = 2;
  cfg.durability.checkpoint_dir = dir;
  SupervisorConfig sup;
  sup.max_recoveries = 1;
  sup.backoff_s = 0.0;
  sup.make_transport = [] { return std::make_unique<SoloTransport>(); };

  EXPECT_THROW(run_parallel_md_supervised(sys, field, "SC",
                                          ProcessGrid({1, 1, 1}), cfg, sup),
               Error);
  std::filesystem::remove_all(dir);
}

TEST(RecoveryTest, FaultPlanParsesFromEnvironment) {
  {
    EnvGuard kill_at("SCMD_FAULT_KILL_AT_STEP", "17");
    EnvGuard kill_rank("SCMD_FAULT_KILL_RANK", "3");
    EnvGuard token_env("SCMD_FAULT_TOKEN", "/tmp/tok");
    const auto plan = ckpt::fault_plan_from_env();
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->kill_at_step, 17);
    EXPECT_EQ(plan->kill_rank, 3);
    EXPECT_EQ(plan->token_path, "/tmp/tok");
  }
  EXPECT_FALSE(ckpt::fault_plan_from_env().has_value());
}

TEST(RecoveryTest, FaultTokenBurnsAfterFirstFiring) {
  const std::string token = fresh_dir("scmd_recovery_token") + ".tok";
  std::filesystem::remove(token);
  ckpt::FaultPlan plan;
  plan.kill_at_step = 3;
  plan.kill_rank = 1;
  plan.token_path = token;
  const std::optional<ckpt::FaultPlan> armed = plan;

  ckpt::maybe_kill(armed, /*rank=*/0, /*completed_step=*/3, nullptr);  // rank
  ckpt::maybe_kill(armed, 1, 2, nullptr);                              // step
  EXPECT_FALSE(std::filesystem::exists(token));
  EXPECT_THROW(ckpt::maybe_kill(armed, 1, 3, nullptr), Error);
  EXPECT_TRUE(std::filesystem::exists(token));
  // Token burned: the same crossing stands down now.
  ckpt::maybe_kill(armed, 1, 3, nullptr);
  std::filesystem::remove(token);
}

}  // namespace
}  // namespace scmd
