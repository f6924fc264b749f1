// The headline parallel-correctness property: P-rank MD with real message
// passing reproduces the serial engine's forces, energies, and
// trajectories, for all three strategies and several process grids.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <ostream>
#include <string>

#include "engines/serial_engine.hpp"
#include "md/builders.hpp"
#include "md/units.hpp"
#include "parallel/parallel_engine.hpp"
#include "potentials/lj.hpp"
#include "potentials/vashishta.hpp"
#include "support/rng.hpp"

namespace scmd {
namespace {

struct Reference {
  double energy;
  std::vector<Vec3> pos, force;
};

Reference serial_reference(const ParticleSystem& initial,
                           const ForceField& field,
                           const std::string& strategy, double dt,
                           int steps) {
  ParticleSystem sys = initial;
  SerialEngineConfig cfg;
  cfg.dt = dt;
  SerialEngine engine(sys, field, make_strategy(strategy, field), cfg);
  for (int s = 0; s < steps; ++s) engine.step();
  Reference ref;
  ref.energy = engine.potential_energy();
  ref.pos.assign(sys.positions().begin(), sys.positions().end());
  ref.force.assign(sys.forces().begin(), sys.forces().end());
  return ref;
}

struct Case {
  std::string strategy;
  Int3 pgrid;
};

// Without this gtest prints a Case as raw bytes, which include the
// string's heap pointer, so the ctest names gtest_discover_tests builds
// from the printed value would change from one build or run to the next.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.strategy << " on " << c.pgrid.x << 'x' << c.pgrid.y << 'x'
      << c.pgrid.z;
}

class ParallelMdTest : public ::testing::TestWithParam<Case> {};

TEST_P(ParallelMdTest, MatchesSerialSilicaRun) {
  const auto& [strategy, pdims] = GetParam();
  Rng rng(110);
  // Big enough that every rank region fits rcut2 = 5.5 Å per axis under
  // a 2x2x2 grid: side >= 33 Å -> ~2400 atoms at 2.2 g/cc.
  const ParticleSystem initial = make_silica(2400, 2.2, 400.0, rng);
  const VashishtaSiO2 field;
  const double dt = 1.0 * units::kFemtosecond;
  const int steps = 3;

  const Reference ref =
      serial_reference(initial, field, strategy, dt, steps);

  ParticleSystem sys = initial;
  ParallelRunConfig cfg;
  cfg.dt = dt;
  cfg.num_steps = steps;
  const ParallelRunResult res =
      run_parallel_md(sys, field, strategy, ProcessGrid(pdims), cfg);

  EXPECT_NEAR(res.potential_energy, ref.energy,
              1e-8 * std::abs(ref.energy) + 1e-8);
  for (int i = 0; i < sys.num_atoms(); ++i) {
    EXPECT_NEAR(sys.positions()[i].x, ref.pos[static_cast<std::size_t>(i)].x,
                1e-8)
        << i;
    EXPECT_NEAR(sys.positions()[i].y, ref.pos[static_cast<std::size_t>(i)].y,
                1e-8)
        << i;
    EXPECT_NEAR(sys.positions()[i].z, ref.pos[static_cast<std::size_t>(i)].z,
                1e-8)
        << i;
    EXPECT_NEAR(sys.forces()[i].x, ref.force[static_cast<std::size_t>(i)].x,
                1e-7)
        << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndGrids, ParallelMdTest,
    ::testing::Values(Case{"SC", {2, 2, 2}}, Case{"FS", {2, 2, 2}},
                      Case{"Hybrid", {2, 2, 2}}, Case{"SC", {4, 1, 1}},
                      Case{"SC", {2, 2, 1}}, Case{"Hybrid", {1, 2, 2}},
                      // Ablation variants: octant import without collapse
                      // and collapse with full-shell import.
                      Case{"OC", {2, 2, 2}}, Case{"RC", {2, 2, 2}},
                      // Prefix-sharing enumeration across ranks.
                      Case{"SC+p", {2, 2, 2}}),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      const Case& c = param_info.param;
      std::string tag;
      for (char ch : c.strategy) {
        if (std::isalnum(static_cast<unsigned char>(ch))) tag += ch;
      }
      return tag + "_" + std::to_string(c.pgrid.x) +
             std::to_string(c.pgrid.y) + std::to_string(c.pgrid.z);
    });

TEST(ParallelMdTest, SingleRankIsSerial) {
  Rng rng(111);
  const LennardJones lj;
  const ParticleSystem initial = make_gas(lj, 200, 5.0, 1.0, rng);
  const Reference ref = serial_reference(initial, lj, "SC", 0.005, 5);

  ParticleSystem sys = initial;
  ParallelRunConfig cfg;
  cfg.dt = 0.005;
  cfg.num_steps = 5;
  run_parallel_md(sys, lj, "SC", ProcessGrid({1, 1, 1}), cfg);
  for (int i = 0; i < sys.num_atoms(); ++i) {
    EXPECT_NEAR(sys.positions()[i].x, ref.pos[static_cast<std::size_t>(i)].x,
                1e-10);
  }
}

TEST(ParallelMdTest, EnergyConservedAcrossRanks) {
  Rng rng(112);
  const LennardJones lj;
  ParticleSystem sys = make_gas(lj, 400, 5.0, 1.0, rng);
  ParallelRunConfig cfg;
  cfg.dt = 0.005;
  cfg.num_steps = 0;
  ParticleSystem probe = sys;
  const ParallelRunResult initial =
      run_parallel_md(probe, lj, "SC", ProcessGrid({2, 2, 2}), cfg);
  const double e0 = initial.potential_energy + probe.kinetic_energy();

  cfg.num_steps = 40;
  const ParallelRunResult after =
      run_parallel_md(sys, lj, "SC", ProcessGrid({2, 2, 2}), cfg);
  const double e1 = after.potential_energy + sys.kinetic_energy();
  EXPECT_NEAR(e1, e0, std::abs(e0) * 0.02 + 0.05);
}

TEST(ParallelMdTest, PollAbortStopsEveryRankAtOneBoundary) {
  Rng rng(114);
  const LennardJones lj;
  const ParticleSystem initial = make_gas(lj, 400, 5.0, 1.0, rng);
  ParallelRunConfig cfg;
  cfg.dt = 0.005;

  ParticleSystem plain = initial;
  cfg.num_steps = 3;
  run_parallel_md(plain, lj, "SC", ProcessGrid({2, 2, 2}), cfg);

  // Each rank is its own thread, so a thread-local count is that rank's
  // poll count: every rank asks to stop (reason 2) on its third poll.
  ParticleSystem sys = initial;
  cfg.num_steps = 10;
  cfg.poll_abort = [] {
    thread_local int polls = 0;
    return ++polls >= 3 ? 2 : 0;
  };
  const ParallelRunResult res =
      run_parallel_md(sys, lj, "SC", ProcessGrid({2, 2, 2}), cfg);
  EXPECT_EQ(res.abort_reason, 2);
  EXPECT_EQ(res.steps_completed, 3);
  for (int i = 0; i < sys.num_atoms(); ++i) {
    ASSERT_EQ(sys.positions()[i].x, plain.positions()[i].x) << i;
    ASSERT_EQ(sys.positions()[i].y, plain.positions()[i].y) << i;
    ASSERT_EQ(sys.positions()[i].z, plain.positions()[i].z) << i;
  }
}

TEST(ParallelMdTest, ImportCountsShrinkWithOctantPattern) {
  Rng rng(113);
  const VashishtaSiO2 field;
  const ParticleSystem initial = make_silica(2400, 2.2, 300.0, rng);

  auto ghosts = [&](const std::string& strategy) {
    ParticleSystem sys = initial;
    ParallelRunConfig cfg;
    cfg.dt = 1.0 * units::kFemtosecond;
    cfg.num_steps = 0;
    return run_parallel_md(sys, field, strategy, ProcessGrid({2, 2, 2}), cfg)
        .total.ghost_atoms_imported;
  };
  const auto sc = ghosts("SC");
  const auto fs = ghosts("FS");
  const auto hy = ghosts("Hybrid");
  EXPECT_LT(sc, fs);
  EXPECT_LT(sc, hy);
  // Octant import is a fraction of the full shell; at this grain the
  // paper's ratio is ~26/7.
  EXPECT_GT(static_cast<double>(fs) / static_cast<double>(sc), 2.0);
}

}  // namespace
}  // namespace scmd
