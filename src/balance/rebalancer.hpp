#pragma once

/// \file rebalancer.hpp
/// In-flight load balancing for the parallel rank engine.
///
/// Collective protocol, executed by every rank inside RankEngine::step()
/// between atom migration and force computation (forces are stale there
/// and fully recomputed, so only positions/velocities ever move):
///
///  1. measure: allreduce the per-rank search work accumulated since the
///     last rebalance (per-cell counters summed locally) into the
///     max/mean imbalance ratio;
///  2. trigger: every-K steps, or in auto mode when the ratio exceeds the
///     threshold, at least `min_interval` steps since the last re-cut,
///     with hysteresis against re-cutting for marginal gains;
///  3. plan: each rank apportions its per-cell costs onto the global fine
///     lattice (CostField) and sends its sparse entries to rank 0, which
///     merges them in rank order, solves for cuts + process-grid
///     factorization (solver.hpp) and broadcasts the plan — every rank
///     then holds the identical decomposition;
///  4. apply: RankEngine::apply_decomposition swaps the cuts and rebuilds
///     the halo exchange, Migrator::settle routes every atom to its new
///     owner (multi-hop), and the per-cell cost counters reset.
///
/// The plan keeps the alignment process grid, so cell grids — and with
/// them the measured per-cell costs — stay comparable across re-cuts.

#include <functional>
#include <memory>
#include <optional>

#include "balance/solver.hpp"
#include "geom/int3.hpp"
#include "net/transport.hpp"
#include "parallel/rank_engine.hpp"

namespace scmd {

/// Rebalancer policy knobs (must be identical on every rank).
struct BalanceConfig {
  enum class Mode {
    kOff,    ///< never rebalance (measurement only)
    kEvery,  ///< unconditionally re-cut every `every` steps
    kAuto,   ///< threshold + hysteresis + minimum interval
  };
  Mode mode = Mode::kAuto;
  int every = 0;            ///< kEvery period in steps
  double threshold = 1.2;   ///< kAuto: re-cut when max/mean exceeds this
  int min_interval = 10;    ///< kAuto: min steps between re-cuts
};

/// RankBalancer implementation (see rank_engine.hpp).  One instance per
/// rank; configuration must agree across ranks.
class Rebalancer final : public RankBalancer {
 public:
  explicit Rebalancer(const BalanceConfig& config);

  void on_step(Comm& comm, RankEngine& engine) override;
  /// Tuple-cache reuse step: nothing measured, nothing re-cut.  Clears
  /// the per-step outcome so callers polling last_step() do not see a
  /// stale rebalance twice; step counters do not advance, so `every` and
  /// `min_interval` count rebuild steps (see docs/TUPLECACHE.md).
  void on_cached_step() override { info_ = BalanceStepInfo{}; }
  const BalanceStepInfo& last_step() const override { return info_; }

 private:
  double measure_ratio(Comm& comm, RankEngine& engine) const;
  void rebalance(Comm& comm, RankEngine& engine);
  /// Deposit, gather on rank 0, solve, broadcast: the accepted
  /// decomposition on every rank (its predicted ratio in info_), or
  /// nothing when the solver declined.
  std::optional<Decomposition> plan(Comm& comm, RankEngine& engine);

  BalanceConfig config_;
  BalanceStepInfo info_;
  int step_ = 0;
  int last_rebalance_step_ = 0;
  double trigger_level_ = 0.0;
};

/// Plan broadcast wire format (doubles): [accepted, px, py, pz, predicted],
/// followed when accepted by the pgrid_dims[a] + 1 cuts of each axis.
Bytes encode_balance_plan(const BalanceSolution& sol, bool accepted);

/// Decode a plan broadcast for `num_ranks` ranks on the fine lattice
/// `res`: the accepted solution, or nothing when the solver declined.
/// Throws scmd::Error unless the payload is exactly one well-formed plan:
/// finite values, a 0/1 flag, and when accepted integral dims >= 1 whose
/// product is `num_ranks` and integral cuts in [0, res[a]] (Decomposition
/// checks that they increase from 0 to res[a]).
std::optional<BalanceSolution> decode_balance_plan(const Bytes& payload,
                                                   int num_ranks,
                                                   const Int3& res);

/// Factory for ParallelRunConfig::make_balancer.
std::function<std::unique_ptr<RankBalancer>(int rank)> make_rebalancer_factory(
    const BalanceConfig& config);

}  // namespace scmd
