#include "balance/rebalancer.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "balance/cost_field.hpp"
#include "net/tags.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace scmd {

namespace {

/// kAuto: after a re-cut the trigger level rises to
/// predicted * (1 + kHysteresis), so marginal gains do not re-cut.
constexpr double kHysteresis = 0.05;

}  // namespace

Rebalancer::Rebalancer(const BalanceConfig& config) : config_(config) {
  SCMD_REQUIRE(config.mode != BalanceConfig::Mode::kEvery || config.every > 0,
               "every-K balancing needs a positive period");
  SCMD_REQUIRE(config.threshold > 1.0,
               "balance threshold must exceed 1 (perfect balance)");
  SCMD_REQUIRE(config.min_interval >= 1, "min interval must be positive");
  trigger_level_ = config.threshold;
}

double Rebalancer::measure_ratio(Comm& comm, RankEngine& engine) const {
  double local = 0.0;
  for (int n = 2; n <= kMaxTupleLen; ++n) {
    if (!engine.grid_active(n)) continue;
    for (const std::uint64_t w : engine.cell_costs(n))
      local += static_cast<double>(w);
  }
  const double sum = comm.allreduce_sum(local);
  const double mx = comm.allreduce_max(local);
  if (sum <= 0.0) return 0.0;
  return mx * static_cast<double>(comm.num_ranks()) / sum;
}

void Rebalancer::on_step(Comm& comm, RankEngine& engine) {
  ++step_;
  info_ = BalanceStepInfo{};
  info_.ratio = measure_ratio(comm, engine);

  bool trigger = false;
  switch (config_.mode) {
    case BalanceConfig::Mode::kOff:
      break;
    case BalanceConfig::Mode::kEvery:
      trigger = step_ % config_.every == 0;
      break;
    case BalanceConfig::Mode::kAuto:
      trigger = step_ - last_rebalance_step_ >= config_.min_interval &&
                info_.ratio > trigger_level_;
      break;
  }
  if (trigger) rebalance(comm, engine);
}

void Rebalancer::rebalance(Comm& comm, RankEngine& engine) {
  std::optional<Decomposition> next;
  {
    SCMD_TRACE("balance.plan");
    next = plan(comm, engine);
  }
  last_rebalance_step_ = step_;
  engine.reset_cell_costs();
  if (!next) return;  // solver declined; keep the current cuts

  SCMD_TRACE("balance.apply");
  engine.apply_decomposition(*next);
  const std::uint64_t sent = engine.settle_atoms();
  info_.migrated_atoms = static_cast<std::uint64_t>(
      comm.allreduce_sum(static_cast<double>(sent)));
  info_.rebalanced = true;
  trigger_level_ = std::max(config_.threshold,
                            info_.predicted_ratio * (1.0 + kHysteresis));
}

std::optional<Decomposition> Rebalancer::plan(Comm& comm,
                                              RankEngine& engine) {
  const Decomposition& decomp = engine.decomp();
  const ForceStrategy& strategy = engine.strategy();

  // Fine cut lattice and per-grid reach parameters (identical on every
  // rank: derived from shared configuration only).
  std::vector<Int3> dims;
  std::vector<GridReach> reaches;
  for (int n = 2; n <= kMaxTupleLen; ++n) {
    if (!engine.grid_active(n)) continue;
    const Int3 d = engine.grid(n).dims();
    dims.push_back(d);
    const HaloSpec h = strategy.halo(n);
    const HaloSpec ext = strategy.root_reach(n);
    GridReach gr;
    gr.dims = d;
    for (int a = 0; a < 3; ++a) {
      gr.halo_lo[a] = h.lo[a] + ext.lo[a];
      gr.halo_hi[a] = h.hi[a] + ext.hi[a];
    }
    reaches.push_back(gr);
  }
  const Int3 res = CostField::recommend_res(dims);

  // Local measured cost, apportioned onto the fine lattice.
  CostField field(decomp.box(), res);
  for (int n = 2; n <= kMaxTupleLen; ++n) {
    if (!engine.grid_active(n)) continue;
    field.deposit(engine.domain(n), engine.cell_costs(n));
  }

  // Gather the sparse entries on rank 0, solve, broadcast the plan.
  const int P = comm.num_ranks();
  std::optional<BalanceSolution> sol;
  if (comm.rank() != 0) {
    comm.send(0, tags::kBalanceCostGather, pack(field.entries()));
    sol = decode_balance_plan(comm.recv(0, tags::kBalancePlanBcast), P, res);
  } else {
    // Other ranks' entries fold in after rank 0's own, in rank order;
    // CostField::add rejects malformed ones.
    for (int r = 1; r < P; ++r) {
      try {
        field.add(unpack<CostEntry>(comm.recv(r, tags::kBalanceCostGather)));
      } catch (const Error& e) {
        throw Error("balance cost gather from rank " + std::to_string(r) +
                    ": " + e.what());
      }
    }
    const BalanceSolution solved =
        solve_balanced_cuts(field, P, width_limits_for(res, reaches));
    // Re-cut only when feasible and predicted to improve on what is
    // currently measured (every-K mode re-cuts whenever feasible).
    const bool accept =
        solved.predicted_ratio > 0.0 &&
        (config_.mode == BalanceConfig::Mode::kEvery ||
         solved.predicted_ratio < info_.ratio);
    const Bytes payload = encode_balance_plan(solved, accept);
    for (int r = 1; r < P; ++r) comm.send(r, tags::kBalancePlanBcast, payload);
    if (accept) sol = solved;
  }
  if (!sol) return std::nullopt;
  info_.predicted_ratio = sol->predicted_ratio;
  return Decomposition(decomp.box(), ProcessGrid(sol->pgrid_dims), sol->cuts,
                       res, decomp.align_pgrid());
}

Bytes encode_balance_plan(const BalanceSolution& sol, bool accepted) {
  std::vector<double> plan{accepted ? 1.0 : 0.0};
  for (int a = 0; a < 3; ++a)
    plan.push_back(static_cast<double>(sol.pgrid_dims[a]));
  plan.push_back(sol.predicted_ratio);
  if (accepted) {
    for (const auto& axis : sol.cuts)
      for (const int c : axis) plan.push_back(static_cast<double>(c));
  }
  return pack(plan);
}

std::optional<BalanceSolution> decode_balance_plan(const Bytes& payload,
                                                   int num_ranks,
                                                   const Int3& res) {
  const std::vector<double> plan = unpack<double>(payload);
  SCMD_REQUIRE(plan.size() >= 5,
               "balance plan: " + std::to_string(plan.size()) +
                   " values, need at least 5");
  for (const double v : plan)
    SCMD_REQUIRE(std::isfinite(v), "balance plan: non-finite value");
  SCMD_REQUIRE(plan[0] == 0.0 || plan[0] == 1.0,
               "balance plan: accept flag must be 0 or 1");
  if (plan[0] == 0.0) {
    SCMD_REQUIRE(plan.size() == 5,
                 "balance plan: a declined plan carries no cuts");
    return std::nullopt;
  }
  // Integral in [lo, hi], checked before the cast so it cannot overflow.
  const auto integral = [](double v, int lo, int hi) {
    return v == std::floor(v) && v >= lo && v <= hi;
  };
  BalanceSolution sol;
  long long ranks = 1;
  std::size_t want = 5;
  for (int a = 0; a < 3; ++a) {
    const double d = plan[static_cast<std::size_t>(a) + 1];
    SCMD_REQUIRE(integral(d, 1, num_ranks),
                 "balance plan: process-grid dims must be integers in [1, " +
                     std::to_string(num_ranks) + "]");
    sol.pgrid_dims[a] = static_cast<int>(d);
    ranks *= sol.pgrid_dims[a];
    want += static_cast<std::size_t>(sol.pgrid_dims[a]) + 1;
  }
  SCMD_REQUIRE(ranks == num_ranks,
               "balance plan: process grid does not match the rank count");
  SCMD_REQUIRE(plan.size() == want,
               "balance plan: " + std::to_string(plan.size()) +
                   " values, the process grid needs " + std::to_string(want));
  sol.predicted_ratio = plan[4];
  std::size_t at = 5;
  for (int a = 0; a < 3; ++a) {
    std::vector<int>& cuts = sol.cuts[static_cast<std::size_t>(a)];
    for (int i = 0; i <= sol.pgrid_dims[a]; ++i) {
      const double c = plan[at++];
      SCMD_REQUIRE(integral(c, 0, res[a]),
                   "balance plan: cuts must be integers on the fine lattice");
      cuts.push_back(static_cast<int>(c));
    }
  }
  return sol;
}

std::function<std::unique_ptr<RankBalancer>(int rank)> make_rebalancer_factory(
    const BalanceConfig& config) {
  return [config](int /*rank*/) {
    return std::make_unique<Rebalancer>(config);
  };
}

}  // namespace scmd
