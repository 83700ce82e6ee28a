#ifndef DBWIPES_TESTS_REFERENCE_RANKER_H_
#define DBWIPES_TESTS_REFERENCE_RANKER_H_

#include <vector>

#include "dbwipes/common/exec_context.h"
#include "dbwipes/core/predicate_ranker.h"

namespace dbwipes {

/// \brief The from-scratch serial ranker: the differential oracle for
/// PredicateRanker.
///
/// Per predicate it binds, scans F row by row, and recomputes the
/// error metric with ErrorAfterRemoval / PerGroupErrorAfterRemoval —
/// no RemovalScorer deltas, no MatchEngine, no threads, no shards. It
/// honours the same anytime contract (whole kScoreBlock blocks, the
/// "ranker/score" fault site, the scored-removal budget) and dedups
/// through the same CombinePartialRankings, so its output must equal
/// PredicateRanker::RankAnytime's in order and matched counts, with
/// scores equal up to the last few ulps (a delta removal may round
/// differently from a fresh fold).
Result<RankOutcome> ReferenceRank(
    const RankerOptions& options, const Table& table,
    const QueryResult& result, const std::vector<size_t>& selected_groups,
    const ErrorMetric& metric, size_t agg_index,
    const std::vector<RowId>& suspects,
    const std::vector<RowId>& reference_positive, double per_group_baseline,
    const std::vector<EnumeratedPredicate>& predicates,
    const ExecContext& ctx = ExecContext::None());

}  // namespace dbwipes

#endif  // DBWIPES_TESTS_REFERENCE_RANKER_H_
