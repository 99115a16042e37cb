// Appendix B (Theorem 5): SAT reduces to history legality with serial
// updates. The headline property test checks, against brute-force SAT,
// that IsLegal(reduction.history) == satisfiable(psi) on random formulas.

#include "cc/sat_reduction.h"

#include <gtest/gtest.h>

#include "cc/update_consistency.h"
#include "cc/view_serializability.h"
#include "common/format.h"

namespace bcc {
namespace {

CnfFormula Parse3Sat(std::initializer_list<std::initializer_list<int>> clauses,
                     uint32_t num_vars) {
  // Positive int v = variable v-1; negative = negated.
  CnfFormula f;
  f.num_vars = num_vars;
  for (const auto& clause : clauses) {
    CnfClause c;
    for (int lit : clause) {
      c.literals.push_back({static_cast<uint32_t>(std::abs(lit)) - 1, lit < 0});
    }
    f.clauses.push_back(std::move(c));
  }
  return f;
}

TEST(CnfTest, EvaluateAndMixed) {
  const CnfFormula f = Parse3Sat({{1, -2}, {2, 3}}, 3);
  EXPECT_TRUE(f.clauses[0].IsMixed());
  EXPECT_FALSE(f.clauses[1].IsMixed());
  EXPECT_TRUE(f.Evaluate({true, true, false}));
  EXPECT_FALSE(f.Evaluate({true, false, false}));
  EXPECT_EQ(f.NumOccurrences(), 4u);
}

TEST(CnfTest, BruteForceFindsWitness) {
  const CnfFormula f = Parse3Sat({{1, 2}, {-1, 2}, {1, -2}}, 2);
  auto model = SolveBruteForce(f);
  ASSERT_TRUE(model.has_value());
  EXPECT_TRUE(f.Evaluate(*model));
  EXPECT_EQ(*model, (std::vector<bool>{true, true}));
}

TEST(CnfTest, BruteForceDetectsUnsat) {
  const CnfFormula f = Parse3Sat({{1}, {-1}}, 1);
  EXPECT_FALSE(SolveBruteForce(f).has_value());
}

TEST(CnfTest, BruteForceHonorsPins) {
  const CnfFormula f = Parse3Sat({{1, 2}}, 2);
  auto model = SolveBruteForce(f, {{0, false}});
  ASSERT_TRUE(model.has_value());
  EXPECT_FALSE((*model)[0]);
  EXPECT_TRUE((*model)[1]);
  EXPECT_FALSE(SolveBruteForce(Parse3Sat({{1}}, 1), {{0, false}}).has_value());
}

TEST(SatReductionStepsTest, GuardVariableInEveryClause) {
  const CnfFormula psi = Parse3Sat({{1, 2, 3}, {-1, -2}}, 3);
  uint32_t guard = 0;
  const CnfFormula with_guard = AddGuardVariable(psi, &guard);
  EXPECT_EQ(guard, 3u);
  EXPECT_EQ(with_guard.num_vars, 4u);
  for (const CnfClause& c : with_guard.clauses) {
    EXPECT_EQ(c.literals.back(), (Literal{guard, false}));
  }
  // psi satisfiable <=> with_guard satisfiable under guard=false.
  EXPECT_EQ(SolveBruteForce(psi).has_value(),
            SolveBruteForce(with_guard, {{guard, false}}).has_value());
  EXPECT_TRUE(SolveBruteForce(with_guard, {{guard, true}}).has_value());
}

TEST(SatReductionStepsTest, SplitKeepsWidthAtMostThreeAndEquisatisfiability) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const CnfFormula psi = RandomCnf(4, 4, 3, &rng);
    uint32_t guard = 0;
    const CnfFormula wide = AddGuardVariable(psi, &guard);
    const CnfFormula split = SplitWideClauses(wide);
    for (const CnfClause& c : split.clauses) EXPECT_LE(c.literals.size(), 3u);
    EXPECT_EQ(SolveBruteForce(wide, {{guard, false}}).has_value(),
              SolveBruteForce(split, {{guard, false}}).has_value());
  }
}

TEST(SatReductionStepsTest, NonCircularizationPreservesSatisfiability) {
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const CnfFormula f = RandomCnf(3, 3, 3, &rng);
    std::vector<std::pair<uint32_t, bool>> copy_map;
    const CnfFormula nc = MakeNonCircular(f, &copy_map);
    EXPECT_TRUE(nc.IsNonCircular()) << nc.ToString();
    ASSERT_LE(nc.num_vars, 24u);
    EXPECT_EQ(SolveBruteForce(f).has_value(), SolveBruteForce(nc).has_value())
        << f.ToString() << "  vs  " << nc.ToString();
    // Chain heads keep their ids and satisfying assignments lift.
    if (auto model = SolveBruteForce(f)) {
      const auto lifted = ExtendToCopies(*model, copy_map);
      EXPECT_TRUE(nc.Evaluate(lifted));
    }
  }
}

TEST(SatReductionStepsTest, ConstructiveGuardTrueAssignment) {
  Rng rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    const CnfFormula psi = RandomCnf(4, 5, 3, &rng);
    uint32_t guard = 0;
    const CnfFormula wide = AddGuardVariable(psi, &guard);
    const CnfFormula split = SplitWideClauses(wide);
    const auto base = SatisfyWithGuardTrue(split, guard, wide.num_vars);
    EXPECT_TRUE(split.Evaluate(base)) << split.ToString();
    EXPECT_TRUE(base[guard]);
  }
}

TEST(SatReductionTest, RejectsWideClauses) {
  CnfFormula psi;
  psi.num_vars = 4;
  psi.clauses.push_back(
      CnfClause{{{0, false}, {1, false}, {2, false}, {3, false}}});
  EXPECT_TRUE(ReduceSatToLegality(psi).status().IsInvalidArgument());
}

TEST(SatReductionTest, HistoryIsSerialUpdatePlusOneReader) {
  const CnfFormula psi = Parse3Sat({{1, 2}, {-1, 2}}, 2);
  auto red = ReduceSatToLegality(psi);
  ASSERT_TRUE(red.ok()) << red.status();
  const History& h = red->history;
  EXPECT_TRUE(h.Validate().ok());
  EXPECT_TRUE(h.UpdateSubHistory().IsSerial());
  EXPECT_TRUE(h.Txn(red->reader).IsReadOnly());
  EXPECT_EQ(h.CommittedReadOnlyTxns().size(), 1u);
  EXPECT_EQ(h.CommittedUpdateTxns().size(), red->num_update_txns);
}

TEST(SatReductionTest, SatisfiableFormulaYieldsLegalHistory) {
  const CnfFormula psi = Parse3Sat({{1, 2}, {-1, 2}, {2, -1}}, 2);
  ASSERT_TRUE(SolveBruteForce(psi).has_value());
  auto red = ReduceSatToLegality(psi);
  ASSERT_TRUE(red.ok()) << red.status();
  auto legality = CheckLegality(red->history);
  ASSERT_TRUE(legality.ok()) << legality.status();
  EXPECT_TRUE(legality->legal) << legality->reason;
}

TEST(SatReductionTest, UnsatisfiableFormulaYieldsIllegalHistory) {
  // x & !x, padded to stay in 3-SAT form.
  const CnfFormula psi = Parse3Sat({{1}, {-1}}, 1);
  ASSERT_FALSE(SolveBruteForce(psi).has_value());
  auto red = ReduceSatToLegality(psi);
  ASSERT_TRUE(red.ok()) << red.status();
  auto legality = CheckLegality(red->history);
  ASSERT_TRUE(legality.ok()) << legality.status();
  EXPECT_FALSE(legality->legal);
}

struct ReductionCase {
  uint32_t num_vars;
  uint32_t num_clauses;
  uint32_t max_width;
  uint64_t seed;
  int trials;
};

// The case's label: the test-name suffix and, through PrintTo, the
// GetParam() printout. Without PrintTo gtest prints the raw object bytes,
// padding included, and the discovered ctest names embed that printout.
// Not an operator+ chain: GCC 12 at -O3 flags one with a false-positive
// -Werror=restrict.
std::string Label(const ReductionCase& rc) {
  return StrFormat("v%uc%uw%u", rc.num_vars, rc.num_clauses, rc.max_width);
}
void PrintTo(const ReductionCase& rc, std::ostream* os) { *os << Label(rc); }

class SatReductionPropertyTest : public ::testing::TestWithParam<ReductionCase> {};

TEST_P(SatReductionPropertyTest, LegalityMatchesBruteForceSat) {
  const ReductionCase& tc = GetParam();
  Rng rng(tc.seed);
  int sat_count = 0;
  for (int trial = 0; trial < tc.trials; ++trial) {
    const CnfFormula psi = RandomCnf(tc.num_vars, tc.num_clauses, tc.max_width, &rng);
    const bool satisfiable = SolveBruteForce(psi).has_value();
    sat_count += satisfiable;
    auto red = ReduceSatToLegality(psi);
    ASSERT_TRUE(red.ok()) << red.status() << " for " << psi.ToString();
    auto legality = CheckLegality(red->history);
    ASSERT_TRUE(legality.ok()) << legality.status();
    EXPECT_EQ(legality->legal, satisfiable)
        << psi.ToString() << " -> " << legality->reason;
  }
  // The sweep must see both outcomes to be meaningful.
  EXPECT_GT(sat_count, 0);
  EXPECT_LT(sat_count, tc.trials);
}

INSTANTIATE_TEST_SUITE_P(
    Random, SatReductionPropertyTest,
    ::testing::Values(ReductionCase{1, 2, 1, 11, 20},   // unit clauses: often unsat
                      ReductionCase{2, 3, 2, 12, 20},
                      ReductionCase{2, 4, 2, 13, 15},
                      ReductionCase{3, 5, 2, 14, 15},
                      ReductionCase{3, 4, 3, 15, 15}),
    [](const ::testing::TestParamInfo<ReductionCase>& info) { return Label(info.param); });

}  // namespace
}  // namespace bcc
