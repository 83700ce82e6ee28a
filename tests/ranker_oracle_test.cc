// Oracle law for the predicate ranker: on the Intel and FEC demo
// scenarios, PredicateRanker::RankAnytime must reproduce the
// from-scratch serial ReferenceRank (tests/reference_ranker.h) — same
// order, same matched counts, scores within 1e-9 — and its output must
// be bitwise identical at every thread count and shard plan. Checked
// on the enumerated candidate list and on a merge pool (the ranked
// list plus every pairwise MergePredicates), the two lists a debug
// request ranks.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "dbwipes/core/dbwipes.h"
#include "dbwipes/core/merger.h"
#include "dbwipes/core/predicate_enumerator.h"
#include "dbwipes/core/predicate_ranker.h"
#include "dbwipes/core/session.h"
#include "dbwipes/datagen/fec_generator.h"
#include "dbwipes/datagen/intel_generator.h"
#include "dbwipes/learn/feature.h"
#include "dbwipes/storage/shard.h"
#include "reference_ranker.h"

namespace dbwipes {
namespace {

/// Everything RankAnytime consumes for one scenario, taken from a real
/// debug run's stage artifacts.
struct OracleProblem {
  std::shared_ptr<const Table> table;
  QueryResult result;
  std::vector<size_t> selected;
  ErrorMetricPtr metric;
  size_t agg_index = 0;
  std::vector<RowId> suspects;
  std::vector<RowId> reference;
  double baseline = 0.0;
  std::vector<EnumeratedPredicate> enumerated;
};

template <typename SessionSetup>
OracleProblem BuildProblem(const LabeledDataset& data, ErrorMetricPtr metric,
                           size_t agg_index, const SessionSetup& setup) {
  auto db = std::make_shared<Database>();
  db->RegisterTable(data.table);
  Session session(db);
  setup(&session);
  DBW_CHECK_OK(session.SetMetric(metric, agg_index));
  Explanation exp = *session.Debug();

  OracleProblem p;
  p.table = data.table;
  p.result = session.result();
  p.selected = session.selected_groups();
  p.metric = std::move(metric);
  p.agg_index = agg_index;
  p.suspects = exp.preprocess.suspect_inputs;
  p.reference = exp.cleaned_dprime;
  p.baseline = exp.preprocess.per_group_baseline_error;
  FeatureView view = *FeatureView::Create(
      *p.table, DefaultExplainColumns(*p.table, p.result.query, agg_index));
  p.enumerated = *PredicateEnumerator().Enumerate(view, p.suspects,
                                                  exp.candidates);
  return p;
}

/// The merge stage's pool: the ranked list plus each pairwise merge
/// of it, deduplicated by canonical form.
std::vector<EnumeratedPredicate> MergePool(
    const std::vector<RankedPredicate>& ranked) {
  std::vector<EnumeratedPredicate> pool;
  std::set<std::string> seen;
  auto add = [&](const Predicate& p, const std::string& strategy) {
    if (!seen.insert(p.CanonicalString()).second) return;
    EnumeratedPredicate ep;
    ep.predicate = p;
    ep.strategy = strategy;
    pool.push_back(std::move(ep));
  };
  for (const RankedPredicate& rp : ranked) add(rp.predicate, rp.strategy);
  for (size_t i = 0; i < ranked.size(); ++i) {
    for (size_t j = i + 1; j < ranked.size(); ++j) {
      auto merged = MergePredicates(ranked[i].predicate, ranked[j].predicate);
      if (merged) add(*merged, "merged");
    }
  }
  return pool;
}

void ExpectMatchesOracle(const std::vector<RankedPredicate>& got,
                         const std::vector<RankedPredicate>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].predicate.CanonicalString() + " | " + got[i].strategy,
              want[i].predicate.CanonicalString() + " | " + want[i].strategy)
        << what << " rank " << i;
    EXPECT_EQ(got[i].matched_in_suspects, want[i].matched_in_suspects)
        << what << " rank " << i;
    // A delta removal may differ from a fresh fold in the last ulps.
    EXPECT_NEAR(got[i].score, want[i].score, 1e-9) << what << " rank " << i;
  }
}

void ExpectBitwiseEqual(const std::vector<RankedPredicate>& got,
                        const std::vector<RankedPredicate>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].predicate.CanonicalString(),
              want[i].predicate.CanonicalString())
        << what << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << what << " rank " << i;
    EXPECT_EQ(got[i].error_after, want[i].error_after) << what << " rank " << i;
    EXPECT_EQ(got[i].error_improvement, want[i].error_improvement)
        << what << " rank " << i;
    EXPECT_EQ(got[i].f1, want[i].f1) << what << " rank " << i;
    EXPECT_EQ(got[i].matched_in_suspects, want[i].matched_in_suspects)
        << what << " rank " << i;
  }
}

/// Ranks `predicates` with the oracle and with RankAnytime at threads
/// {1, 2, 8} x plan {none, 1 shard, 3 shards}; returns the oracle's
/// ranking.
std::vector<RankedPredicate> CheckOracleLaw(
    const OracleProblem& p, const std::vector<EnumeratedPredicate>& predicates,
    const std::string& list) {
  RankerOptions base;
  const RankOutcome oracle =
      *ReferenceRank(base, *p.table, p.result, p.selected, *p.metric,
                     p.agg_index, p.suspects, p.reference, p.baseline,
                     predicates);
  EXPECT_FALSE(oracle.partial);
  EXPECT_FALSE(oracle.predicates.empty()) << list;

  std::vector<RankedPredicate> first;
  for (size_t shards : {size_t{0}, size_t{1}, size_t{3}}) {
    std::shared_ptr<ShardSet> set;
    ShardPlan plan;
    if (shards > 0) {
      set = *ShardSet::Create(*p.table, shards);
      plan = ShardPlan::Build(*set, p.suspects);
    }
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      const std::string what = list + " shards=" + std::to_string(shards) +
                               " threads=" + std::to_string(threads);
      RankerOptions opts = base;
      opts.num_threads = threads;
      std::shared_lock<std::shared_mutex> lease;
      if (set != nullptr) lease = set->ReadLease();
      auto outcome = PredicateRanker(opts).RankAnytime(
          *p.table, p.result, p.selected, *p.metric, p.agg_index, p.suspects,
          p.reference, p.baseline, predicates, ExecContext::None(),
          set != nullptr ? &plan : nullptr);
      EXPECT_TRUE(outcome.ok()) << what << ": " << outcome.status().ToString();
      if (!outcome.ok()) continue;
      EXPECT_FALSE(outcome->partial) << what;
      ExpectMatchesOracle(outcome->predicates, oracle.predicates, what);
      if (first.empty()) {
        first = outcome->predicates;
      } else {
        ExpectBitwiseEqual(outcome->predicates, first, what);
      }
    }
  }
  return oracle.predicates;
}

/// `expect_merges`: the scenario's ranked list holds mergeable pairs
/// (FEC's top predicates constrain different attribute sets, so its
/// pool is the ranked list alone).
void CheckScenario(const OracleProblem& p, bool expect_merges) {
  ASSERT_FALSE(p.enumerated.empty());
  ASSERT_FALSE(p.suspects.empty());
  const std::vector<RankedPredicate> ranked =
      CheckOracleLaw(p, p.enumerated, "enumerated");
  const std::vector<EnumeratedPredicate> pool = MergePool(ranked);
  if (expect_merges) {
    ASSERT_GT(pool.size(), ranked.size()) << "no pairwise merge succeeded";
  }
  CheckOracleLaw(p, pool, "merge pool");
}

TEST(RankerOracleTest, IntelScenario) {
  IntelOptions gen;
  gen.duration_days = 3;
  gen.reading_interval_minutes = 10.0;
  gen.faults = {{15, 1 * 1440, 600, 122.0}, {18, 2 * 1440, 600, 110.0}};
  LabeledDataset data = *GenerateIntelDataset(gen);
  CheckScenario(BuildProblem(data, TooHigh(2.0), /*agg_index=*/1,
                             [](Session* session) {
    DBW_CHECK_OK(session->ExecuteSql(
        "SELECT window, avg(temp) AS t, stddev(temp) AS sd "
        "FROM readings GROUP BY window"));
    DBW_CHECK_OK(session->SelectResultsInRange("sd", 8.0, 1e9));
    DBW_CHECK_OK(session->SelectInputsWhere("temp > 100"));
  }), /*expect_merges=*/true);
}

TEST(RankerOracleTest, FecScenario) {
  FecOptions gen;
  gen.num_donations = 12000;
  gen.num_reattributions = 120;
  LabeledDataset data = *GenerateFecDataset(gen);
  CheckScenario(BuildProblem(data, TooLow(0.0), /*agg_index=*/0,
                             [](Session* session) {
    DBW_CHECK_OK(session->ExecuteSql(
        "SELECT day, sum(amount) AS total FROM donations "
        "WHERE candidate = 'MCCAIN' GROUP BY day"));
    DBW_CHECK_OK(session->SelectResultsInRange("total", -1e15, -1.0));
    DBW_CHECK_OK(session->SelectInputsWhere("amount < 0"));
  }), /*expect_merges=*/false);
}

}  // namespace
}  // namespace dbwipes
