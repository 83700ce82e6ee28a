#include "dbwipes/core/predicate_ranker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "dbwipes/common/metrics.h"
#include "dbwipes/common/parallel.h"
#include "dbwipes/common/trace.h"
#include "dbwipes/core/merger.h"
#include "dbwipes/core/removal_scorer.h"
#include "dbwipes/expr/match_kernels.h"
#include "dbwipes/expr/shard_cache.h"

namespace dbwipes {

namespace {

double MillisBetween(std::chrono::steady_clock::time_point a,
                     std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Global ranking counters; incremented once per run / per block, so
/// the write path never lands inside the per-predicate loop.
struct RankerMetrics {
  MetricCounter* runs;
  MetricCounter* partial_runs;
  MetricCounter* blocks_scored;
  MetricCounter* predicates_scored;
};

const RankerMetrics& Metrics() {
  static const RankerMetrics m = {
      MetricsRegistry::Global().GetCounter("ranker.runs"),
      MetricsRegistry::Global().GetCounter("ranker.partial_runs"),
      MetricsRegistry::Global().GetCounter("ranker.blocks_scored"),
      MetricsRegistry::Global().GetCounter("ranker.predicates_scored"),
  };
  return m;
}

/// Scoring arithmetic: fills the score-derived fields of `rp` from the
/// raw measurements.
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

/// FNV-1a fold of per-slice bitmap part hashes.
uint64_t HashParts(const std::vector<Bitmap>& parts) {
  uint64_t h = 1469598103934665603ULL;
  for (const Bitmap& b : parts) {
    h ^= b.Hash();
    h *= 1099511628211ULL;
  }
  return h;
}

/// Why an anytime run wound down, as a human-readable reason. Explicit
/// cancellation wins over the deadline, which wins over the budget, so
/// a user-initiated stop is never misreported as a timeout.
std::string StopReason(const ExecContext& ctx, bool budget_stopped) {
  const Status why = ctx.CheckContinue();
  if (!why.ok()) return why.ToString();
  if (budget_stopped) return "Resource exhausted: scored-removal budget";
  return "interrupted";
}

/// Fills the outcome for a run cut at `prefix` input predicates.
RankOutcome MakeOutcome(std::vector<RankedPredicate> ranked, size_t prefix,
                        size_t total, const ExecContext& ctx,
                        bool budget_stopped) {
  RankOutcome out;
  out.predicates = std::move(ranked);
  out.scored_prefix = prefix;
  out.total_candidates = total;
  out.partial = prefix < total;
  if (out.partial) out.reason = StopReason(ctx, budget_stopped);
  return out;
}

}  // namespace

Result<std::vector<RankedPredicate>> PredicateRanker::Rank(
    const Table& table, const QueryResult& result,
    const std::vector<size_t>& selected_groups, const ErrorMetric& metric,
    size_t agg_index, const std::vector<RowId>& suspects,
    const std::vector<RowId>& reference_positive, double per_group_baseline,
    const std::vector<EnumeratedPredicate>& predicates,
    const ShardPlan* shards) const {
  DBW_ASSIGN_OR_RETURN(
      RankOutcome outcome,
      RankAnytime(table, result, selected_groups, metric, agg_index, suspects,
                  reference_positive, per_group_baseline, predicates,
                  ExecContext::None(), shards));
  // The null context never interrupts, so the outcome is complete.
  return std::move(outcome.predicates);
}

Result<RankOutcome> PredicateRanker::RankAnytime(
    const Table& table, const QueryResult& result,
    const std::vector<size_t>& selected_groups, const ErrorMetric& metric,
    size_t agg_index, const std::vector<RowId>& suspects,
    const std::vector<RowId>& reference_positive, double per_group_baseline,
    const std::vector<EnumeratedPredicate>& predicates,
    const ExecContext& ctx, const ShardPlan* shards) const {
  if (predicates.empty()) {
    return Status::InvalidArgument("no predicates to rank");
  }
  DBW_FAULT(ctx, "ranker/rank");
  DBW_TRACE_SPAN("ranker/rank");
  Metrics().runs->Increment();
  const size_t n = predicates.size();
  const bool have_reference = !reference_positive.empty();
  double w_error = options_.w_error;
  double w_acc = options_.w_accuracy;
  if (!have_reference) {
    // No user examples to agree with: fold the accuracy weight into
    // error improvement.
    w_error += w_acc;
    w_acc = 0.0;
  }

  // One lineage walk for the whole call; scoring below never touches
  // the lineage or evaluates an expression again. An interrupt this
  // early means nothing was scored: empty partial result.
  Result<RemovalScorer> scorer_r = RemovalScorer::Create(
      table, result, selected_groups, agg_index, suspects, ctx);
  if (!scorer_r.ok()) {
    if (scorer_r.status().IsInterrupt()) {
      return MakeOutcome({}, 0, n, ctx, /*budget_stopped=*/
                         scorer_r.status().IsResourceExhausted());
    }
    return scorer_r.status();
  }
  const RemovalScorer& scorer = scorer_r.ValueUnsafe();

  // An unsharded rank is a one-slice plan over the whole suspect
  // universe: ErrorsAfterParts with one part at offset 0 visits the
  // same operands in the same order as a fused bitmap would, so there
  // is one scoring loop for every shard count. Only real shard sets
  // get cached engines; the one-slice engine is built per run.
  const bool sharded = shards != nullptr && shards->set != nullptr &&
                       !shards->slices.empty();
  ShardPlan whole;
  if (!sharded) whole.slices.push_back({0, &table, suspects, 0});
  const ShardPlan& plan = sharded ? *shards : whole;
  const size_t num_slices = plan.slices.size();
  std::vector<size_t> offsets(num_slices);
  for (size_t s = 0; s < num_slices; ++s) offsets[s] = plan.slices[s].offset;

  // The reference set as positional bitmaps over each slice: tp of a
  // predicate is then a popcount of the AND.
  std::vector<Bitmap> ref_parts(num_slices);
  for (size_t s = 0; s < num_slices; ++s) {
    const std::vector<RowId>& local = plan.slices[s].local_rows;
    ref_parts[s] = Bitmap(local.size());
    if (!have_reference) continue;
    for (size_t i = 0; i < local.size(); ++i) {
      if (std::binary_search(reference_positive.begin(),
                             reference_positive.end(),
                             suspects[offsets[s] + i])) {
        ref_parts[s].Set(i);
      }
    }
  }

  std::vector<RankedPredicate> scored(n);
  std::vector<std::vector<Bitmap>> matched(n);
  ParallelOptions popts;
  popts.num_threads = options_.num_threads;
  popts.ctx = &ctx;
  RankStats stats;

  // Vectorized matching: enumerators emit conjunctions that share
  // single-attribute clauses (threshold families, repeated categorical
  // equalities), so each distinct clause is scanned ONCE per slice by
  // a typed kernel — chunked over the same pool — and a predicate's
  // bitmap is an AND of cached words or one fused pass. MatchPrepared
  // is const, so the scoring loop below reads the engines concurrently
  // without synchronization.
  //
  // Sharded runs check one cached engine out per shard, each matching
  // that shard's slice of the universe in shard-local coordinates. The
  // per-set cache is what survives between explains — an append grows
  // only the tail shard's table, so every other shard's engine passes
  // the freshness check and returns warm.
  std::shared_ptr<ShardEngineCache> cache;
  if (sharded) cache = ShardEngineCache::For(*shards->set);
  std::vector<std::unique_ptr<MatchEngine>> engines(num_slices);
  std::vector<ExplainProfile::ShardLane> lanes(num_slices);
  for (size_t s = 0; s < num_slices; ++s) {
    lanes[s].shard_index = plan.slices[s].shard_index;
    lanes[s].rows = plan.slices[s].table->num_rows();
    lanes[s].suspects = plan.slices[s].local_rows.size();
  }
  // Reused engines carry cumulative counters across explains; a lane
  // reports the delta from its checkout-time snapshot.
  std::vector<MatchCounters> before(num_slices);
  // Fills the lanes, sums them into `stats` and returns every shard
  // engine to the cache warm. Runs once, on whichever exit comes first.
  bool engines_finished = false;
  auto finish_engines = [&]() {
    if (engines_finished) return;
    engines_finished = true;
    for (size_t s = 0; s < num_slices; ++s) {
      if (engines[s] == nullptr) continue;
      ExplainProfile::ShardLane& lane = lanes[s];
      const MatchEngine& engine = *engines[s];
      lane.match = engine.counters() - before[s];
      lane.cached_clauses = engine.num_cached_clauses();
      lane.cached_programs = engine.num_fused_programs();
      stats.match += lane.match;
      stats.fused_programs += lane.cached_programs;
      if (stats.simd_tier.empty()) {
        stats.simd_tier = SimdTierName(engine.simd_tier());
      }
      if (sharded) cache->Checkin(lane.shard_index, std::move(engines[s]));
    }
    if (sharded) stats.shard_stats = std::move(lanes);
  };

  std::vector<const Predicate*> preds;
  preds.reserve(n);
  for (const EnumeratedPredicate& ep : predicates) {
    preds.push_back(&ep.predicate);
  }
  const auto t_mat = std::chrono::steady_clock::now();
  Status materialized = Status::OK();
  // Slices materialize serially (each internally chunked over the
  // pool), so per-shard wall times are honest and the budget charge
  // order is deterministic.
  for (size_t s = 0; s < num_slices && materialized.ok(); ++s) {
    const ShardSlice& slice = plan.slices[s];
    ExplainProfile::ShardLane& lane = lanes[s];
    if (sharded) {
      materialized = [&]() -> Status {
        DBW_FAULT(ctx, "ranker/shard");
        return Status::OK();
      }();
      if (!materialized.ok()) break;
      ShardEngineCache::Checkout co = cache->CheckoutEngine(
          slice.shard_index, *slice.table, slice.local_rows);
      lane.engine_reused = co.reused;
      engines[s] = std::move(co.engine);
      before[s] = engines[s]->counters();
    } else {
      engines[s] = std::make_unique<MatchEngine>(table, slice.local_rows);
    }
    const auto t_slice = std::chrono::steady_clock::now();
    materialized = engines[s]->Materialize(preds, popts);
    lane.materialize_ms =
        MillisBetween(t_slice, std::chrono::steady_clock::now());
  }
  stats.materialize_ms = MillisBetween(t_mat, std::chrono::steady_clock::now());
  // The bitmap budget cannot hold the clause cache: degrade to
  // per-predicate BoundPredicate matching, which allocates one bitmap
  // at a time.
  const bool bound_matching = materialized.IsResourceExhausted();
  if (!materialized.ok()) {
    // A failed slice rolled its fresh entries back; completed shards
    // stay warm for the next run either way.
    finish_engines();
    if (!bound_matching) {
      if (materialized.IsInterrupt()) return MakeOutcome({}, 0, n, ctx, false);
      return materialized;
    }
  }

  // Anytime scoring: predicates are processed in fixed-size blocks and
  // a block marks itself done only after scoring every member. On an
  // interrupt the run keeps the longest done-prefix of blocks — a cut
  // that is prefix-consistent with the full run at any thread count.
  const size_t num_blocks = (n + kScoreBlock - 1) / kScoreBlock;
  std::vector<unsigned char> block_done(num_blocks, 0);
  // Slot-per-block wall times: each block writes only its own slot, so
  // the vector needs no synchronization beyond the pool's own joins.
  std::vector<double> block_ms(num_blocks, 0.0);
  std::atomic<bool> budget_stop{false};
  const auto t_score = std::chrono::steady_clock::now();

  Status scan = ParallelForStatus(
      num_blocks,
      [&](size_t b) -> Status {
        if (budget_stop.load(std::memory_order_acquire)) return Status::OK();
        if (ctx.StopRequested()) return Status::OK();
        DBW_FAULT(ctx, "ranker/score");
        const auto t_block = std::chrono::steady_clock::now();
        const size_t lo = b * kScoreBlock;
        const size_t hi = std::min(n, lo + kScoreBlock);
        if (ctx.budget != nullptr) {
          Status charged = ctx.budget->ChargeScoredRemovals(hi - lo);
          if (!charged.ok()) {
            budget_stop.store(true, std::memory_order_release);
            return Status::OK();  // wind down; block stays incomplete
          }
        }
        for (size_t i = lo; i < hi; ++i) {
          // Per-predicate stop check: one steady-clock read against a
          // full removal-set scoring — the block is abandoned (not
          // marked done), bounding overrun to a single predicate.
          if (ctx.StopRequested()) return Status::OK();
          const EnumeratedPredicate& ep = predicates[i];
          RankedPredicate& rp = scored[i];
          rp.predicate = ep.predicate;
          rp.strategy = ep.strategy;
          // Per-slice bitmaps, folded in slice order: offsets ascend,
          // so removals apply in ascending global suspect order at
          // every shard count.
          std::vector<Bitmap> parts(num_slices);
          size_t tp = 0;
          for (size_t s = 0; s < num_slices; ++s) {
            if (bound_matching) {
              const ShardSlice& slice = plan.slices[s];
              DBW_ASSIGN_OR_RETURN(BoundPredicate bound,
                                   ep.predicate.Bind(*slice.table));
              parts[s] = bound.MatchBitmap(slice.local_rows);
            } else {
              DBW_ASSIGN_OR_RETURN(
                  parts[s], engines[s]->MatchPrepared(ep.predicate, ctx));
            }
            rp.matched_in_suspects += parts[s].CountOnes();
            if (have_reference) tp += parts[s].CountAnd(ref_parts[s]);
          }
          const RemovalScorer::Errors errors =
              scorer.ErrorsAfterParts(metric, parts, offsets);
          matched[i] = std::move(parts);
          rp.error_after = errors.raw;
          FinishScore(options_, have_reference, w_error, w_acc,
                      per_group_baseline, errors.per_group, tp,
                      reference_positive.size(), &rp);
        }
        block_ms[b] = MillisBetween(t_block, std::chrono::steady_clock::now());
        block_done[b] = 1;
        return Status::OK();
      },
      popts);
  stats.score_ms = MillisBetween(t_score, std::chrono::steady_clock::now());
  if (!scan.ok() && !scan.IsInterrupt()) {
    finish_engines();  // hand shard engines back warm
    return scan;
  }

  // The deterministic cut: contiguous completed blocks from the front.
  size_t done_blocks = 0;
  while (done_blocks < num_blocks && block_done[done_blocks]) ++done_blocks;
  const size_t prefix = std::min(n, done_blocks * kScoreBlock);
  scored.resize(prefix);
  matched.resize(prefix);
  // With a fixed plan every predicate's parts have identical shapes,
  // so part-vector equality is matched-set equality.
  std::vector<RankedPredicate> ranked = CombinePartialRankings(
      &scored, [&](size_t i) { return HashParts(matched[i]); },
      [&](size_t a, size_t b) { return matched[a] == matched[b]; },
      options_.top_k);

  stats.blocks_total = num_blocks;
  stats.blocks_done = done_blocks;
  stats.block_ms = std::move(block_ms);
  finish_engines();  // stats.match becomes the lane sum
  Metrics().blocks_scored->Increment(done_blocks);
  Metrics().predicates_scored->Increment(prefix);

  RankOutcome out = MakeOutcome(std::move(ranked), prefix, n, ctx,
                                budget_stop.load(std::memory_order_acquire));
  if (out.partial) Metrics().partial_runs->Increment();
  out.stats = std::move(stats);
  return out;
}

}  // namespace dbwipes
