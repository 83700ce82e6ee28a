#include "reference_ranker.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>

#include "dbwipes/core/merger.h"

namespace dbwipes {

namespace {

constexpr size_t kScoreBlock = PredicateRanker::kScoreBlock;

double MillisBetween(std::chrono::steady_clock::time_point a,
                     std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Scoring arithmetic, written out independently of the ranker's:
/// fills the score-derived fields of `rp` from the raw measurements.
void FinishScore(const RankerOptions& options, bool have_reference,
                 double w_error, double w_acc, double per_group_baseline,
                 double per_group_after, size_t tp, size_t reference_size,
                 RankedPredicate* rp) {
  if (per_group_baseline > 0.0) {
    rp->error_improvement = std::clamp(
        (per_group_baseline - per_group_after) / per_group_baseline, 0.0,
        1.0);
  }
  if (have_reference) {
    rp->precision = rp->matched_in_suspects == 0
                        ? 0.0
                        : static_cast<double>(tp) /
                              static_cast<double>(rp->matched_in_suspects);
    rp->recall = static_cast<double>(tp) /
                 static_cast<double>(reference_size);
    rp->f1 = (rp->precision + rp->recall) > 0.0
                 ? 2.0 * rp->precision * rp->recall /
                       (rp->precision + rp->recall)
                 : 0.0;
  }
  const double complexity =
      std::min(1.0, static_cast<double>(rp->predicate.num_clauses()) /
                        static_cast<double>(options.max_clauses));
  rp->score = w_error * rp->error_improvement + w_acc * rp->f1 -
              options.w_complexity * complexity;
}

RankOutcome MakeOutcome(std::vector<RankedPredicate> ranked, size_t prefix,
                        size_t total, const ExecContext& ctx,
                        bool budget_stopped) {
  RankOutcome out;
  out.predicates = std::move(ranked);
  out.scored_prefix = prefix;
  out.total_candidates = total;
  out.partial = prefix < total;
  if (out.partial) {
    const Status why = ctx.CheckContinue();
    out.reason = !why.ok()        ? why.ToString()
                 : budget_stopped ? "Resource exhausted: scored-removal budget"
                                  : "interrupted";
  }
  return out;
}

}  // namespace

Result<RankOutcome> ReferenceRank(
    const RankerOptions& options, const Table& table,
    const QueryResult& result, const std::vector<size_t>& selected_groups,
    const ErrorMetric& metric, size_t agg_index,
    const std::vector<RowId>& suspects,
    const std::vector<RowId>& reference_positive, double per_group_baseline,
    const std::vector<EnumeratedPredicate>& predicates,
    const ExecContext& ctx) {
  if (predicates.empty()) {
    return Status::InvalidArgument("no predicates to rank");
  }
  DBW_FAULT(ctx, "ranker/rank");
  const size_t n = predicates.size();
  const bool have_reference = !reference_positive.empty();
  double w_error = options.w_error;
  double w_acc = options.w_accuracy;
  if (!have_reference) {
    w_error += w_acc;
    w_acc = 0.0;
  }

  bool budget_stop = false;
  std::vector<RankedPredicate> scored;
  std::vector<std::vector<RowId>> matched_sets;
  scored.reserve(n);
  matched_sets.reserve(n);
  RankStats stats;
  stats.blocks_total = (n + kScoreBlock - 1) / kScoreBlock;
  stats.block_ms.assign(stats.blocks_total, 0.0);
  const auto t_score = std::chrono::steady_clock::now();
  auto t_block = t_score;
  // Serial loop; the anytime cut is simply how far it got, rounded
  // down to a whole block so both engines report identical prefixes.
  for (const EnumeratedPredicate& ep : predicates) {
    if (ctx.StopRequested()) break;
    if (scored.size() % kScoreBlock == 0) {
      const auto now = std::chrono::steady_clock::now();
      if (!scored.empty()) {
        stats.block_ms[scored.size() / kScoreBlock - 1] =
            MillisBetween(t_block, now);
      }
      t_block = now;
      DBW_FAULT(ctx, "ranker/score");
      if (ctx.budget != nullptr) {
        const size_t block =
            std::min(kScoreBlock, n - scored.size());
        Status charged = ctx.budget->ChargeScoredRemovals(block);
        if (!charged.ok()) {
          budget_stop = true;
          break;
        }
      }
    }
    DBW_ASSIGN_OR_RETURN(BoundPredicate bound, ep.predicate.Bind(table));

    // Tuples of F the predicate matches = the tuples cleaning removes
    // from the selected groups.
    std::vector<RowId> matched;
    for (RowId r : suspects) {
      if (bound.Matches(r)) matched.push_back(r);
    }

    RankedPredicate rp;
    rp.predicate = ep.predicate;
    rp.strategy = ep.strategy;
    rp.matched_in_suspects = matched.size();

    // Raw metric for display; per-group mean for the improvement term.
    DBW_ASSIGN_OR_RETURN(
        rp.error_after,
        ErrorAfterRemoval(table, result, selected_groups, metric, agg_index,
                          matched));
    DBW_ASSIGN_OR_RETURN(
        const double per_group_after,
        PerGroupErrorAfterRemoval(table, result, selected_groups, metric,
                                  agg_index, matched));
    size_t tp = 0;
    if (have_reference) {
      for (RowId r : matched) {
        if (std::binary_search(reference_positive.begin(),
                               reference_positive.end(), r)) {
          ++tp;
        }
      }
    }
    FinishScore(options, have_reference, w_error, w_acc, per_group_baseline,
                per_group_after, tp, reference_positive.size(), &rp);
    scored.push_back(std::move(rp));
    matched_sets.push_back(std::move(matched));
  }

  stats.score_ms = MillisBetween(t_score, std::chrono::steady_clock::now());
  // Close the final block's slot if the loop finished it.
  if (!scored.empty() &&
      (scored.size() == n || scored.size() % kScoreBlock == 0)) {
    stats.block_ms[(scored.size() - 1) / kScoreBlock] =
        MillisBetween(t_block, std::chrono::steady_clock::now());
  }

  size_t prefix = scored.size();
  if (prefix < n) {
    prefix -= prefix % kScoreBlock;  // whole blocks only, like the
                                     // parallel engine's cut
    scored.resize(prefix);
    matched_sets.resize(prefix);
  }
  stats.blocks_done = (prefix + kScoreBlock - 1) / kScoreBlock;

  auto hash_of = [&](size_t i) {
    uint64_t hash = 0x9E3779B97F4A7C15ULL;
    for (RowId r : matched_sets[i]) {
      hash ^= std::hash<RowId>{}(r) + 0x9E3779B9u + (hash << 6) +
              (hash >> 2);
    }
    return hash;
  };
  std::vector<RankedPredicate> ranked = CombinePartialRankings(
      &scored, hash_of,
      [&](size_t a, size_t b) { return matched_sets[a] == matched_sets[b]; },
      options.top_k);
  RankOutcome out = MakeOutcome(std::move(ranked), prefix, n, ctx, budget_stop);
  out.stats = std::move(stats);
  return out;
}

}  // namespace dbwipes
