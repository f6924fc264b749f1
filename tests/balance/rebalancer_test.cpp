// Balance plan broadcast: the encoder/decoder pair every non-solver rank
// runs on the solver rank's payload.  A well-formed plan round-trips; any
// malformed payload throws scmd::Error instead of reading past the buffer
// or sizing vectors from garbage.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "balance/rebalancer.hpp"
#include "support/error.hpp"

namespace scmd {
namespace {

constexpr Int3 kRes{8, 6, 4};

BalanceSolution two_by_two() {
  BalanceSolution sol;
  sol.pgrid_dims = {2, 2, 1};
  sol.cuts = {std::vector<int>{0, 3, 8}, std::vector<int>{0, 2, 6},
              std::vector<int>{0, 4}};
  sol.predicted_ratio = 1.04;
  return sol;
}

/// The accepted two_by_two() plan as doubles, for tampering.
std::vector<double> accepted_values() {
  return {1.0, 2.0, 2.0, 1.0, 1.04, 0.0, 3.0, 8.0, 0.0, 2.0, 6.0, 0.0, 4.0};
}

TEST(BalancePlanWireTest, AcceptedPlanRoundTrips) {
  const BalanceSolution sol = two_by_two();
  const Bytes wire = encode_balance_plan(sol, true);
  EXPECT_EQ(unpack<double>(wire), accepted_values());
  const auto got = decode_balance_plan(wire, 4, kRes);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->pgrid_dims, sol.pgrid_dims);
  EXPECT_EQ(got->cuts, sol.cuts);
  EXPECT_EQ(got->predicted_ratio, sol.predicted_ratio);
}

TEST(BalancePlanWireTest, DeclinedPlanDecodesToNothing) {
  // A declined plan carries the solver's (possibly infeasible) grid and
  // ratio but no cuts; receivers keep their decomposition.
  BalanceSolution infeasible;
  const Bytes wire = encode_balance_plan(infeasible, false);
  EXPECT_EQ(unpack<double>(wire).size(), 5u);
  EXPECT_FALSE(decode_balance_plan(wire, 4, kRes).has_value());
  EXPECT_FALSE(
      decode_balance_plan(encode_balance_plan(two_by_two(), false), 4, kRes)
          .has_value());
}

TEST(BalancePlanWireTest, MalformedPlansThrow) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto decode = [](const std::vector<double>& v) {
    return decode_balance_plan(pack(v), 4, kRes);
  };
  const auto tampered = [](std::size_t at, double v) {
    std::vector<double> p = accepted_values();
    p[at] = v;
    return p;
  };

  // Length: too short for the header, a declined plan with a tail, an
  // accepted plan one cut short or one value long.
  EXPECT_THROW(decode({}), Error);
  EXPECT_THROW(decode({1.0, 2.0, 2.0, 1.0}), Error);
  EXPECT_THROW(decode({0.0, 1.0, 1.0, 1.0, -1.0, 0.0}), Error);
  std::vector<double> short_plan = accepted_values();
  short_plan.pop_back();
  EXPECT_THROW(decode(short_plan), Error);
  std::vector<double> long_plan = accepted_values();
  long_plan.push_back(4.0);
  EXPECT_THROW(decode(long_plan), Error);
  // Not a whole number of doubles.
  Bytes ragged = pack(accepted_values());
  ragged.pop_back();
  EXPECT_THROW(decode_balance_plan(ragged, 4, kRes), Error);

  // Accept flag.
  EXPECT_THROW(decode(tampered(0, 0.5)), Error);
  EXPECT_THROW(decode(tampered(0, 2.0)), Error);
  EXPECT_THROW(decode(tampered(0, nan)), Error);

  // Process-grid dims: negative, zero, fractional, huge, non-finite, and
  // integral dims whose product is not the rank count.
  for (const double bad : {-1.0, 0.0, 1.5, 1e300, nan, inf, -inf}) {
    EXPECT_THROW(decode(tampered(1, bad)), Error) << bad;
  }
  EXPECT_THROW(decode({1.0, 4.0, 2.0, 1.0, 1.0, 0.0, 2.0, 4.0, 6.0, 8.0,
                       0.0, 3.0, 6.0, 0.0, 4.0}),
               Error);  // 4x2x1 = 8 ranks, not 4
  EXPECT_THROW(decode({1.0, 2.0, 1.0, 1.0, 1.0, 0.0, 4.0, 8.0, 0.0, 6.0,
                       0.0, 4.0}),
               Error);  // 2x1x1 = 2 ranks, not 4

  // Predicted ratio and cuts: non-finite, fractional, off the lattice.
  EXPECT_THROW(decode(tampered(4, nan)), Error);
  EXPECT_THROW(decode(tampered(4, inf)), Error);
  for (const double bad : {nan, inf, 2.5, -1.0, 9.0, 1e300}) {
    EXPECT_THROW(decode(tampered(6, bad)), Error) << bad;
  }
  EXPECT_THROW(decode(tampered(10, 7.0)), Error);  // y axis has 6 slabs
}

}  // namespace
}  // namespace scmd
