// Fused-conjunction throughput: the one-pass SIMD-dispatched predicate
// programs (MatchEngine) vs a per-clause materialize+word-AND path
// built here from the same kernels (CompileClause + MatchClauseWords
// once per distinct clause, then Bitmap::AndWith per predicate), on a
// multi-clause workload over the 100k-row acceptance scenario — each
// candidate is a K ∈ {3, 4} conjunction whose numeric thresholds are
// unique to the predicate (so a clause cache cannot amortize them)
// plus one shared categorical clause (so the fused programs still
// exercise the bitmap-ref lowering).
//
// Besides the report table, emits machine-readable BENCH_fused.json
// with per-tier timings (dispatched SIMD tier and the forced-scalar
// tier via DBWIPES_SIMD=off), cross-path bitmap identity, and an
// end-to-end check that full rankings are identical at both tiers.
// Exits non-zero when either identity check fails.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "dbwipes/common/parallel.h"
#include "dbwipes/core/predicate_ranker.h"
#include "dbwipes/core/preprocessor.h"
#include "dbwipes/datagen/synthetic.h"
#include "dbwipes/expr/fused_kernels.h"
#include "dbwipes/expr/match_kernels.h"
#include "dbwipes/expr/parser.h"

namespace dbwipes {
namespace {

using bench::Fmt;
using bench::TablePrinter;

struct FusedProblem {
  LabeledDataset data;
  QueryResult result;
  std::vector<size_t> selected_groups;
  ErrorMetricPtr metric;
  std::vector<RowId> suspects;
  std::vector<RowId> reference;
  double per_group_baseline = 0.0;
  std::vector<EnumeratedPredicate> predicates;
};

/// K ∈ {3, 4} conjunctions: one shared categorical equality (drawn
/// from a small pool, so fusion lowers it as a cached-bitmap ref) and
/// 2–3 numeric thresholds whose cuts are unique to the predicate —
/// the worst case for the per-clause cache (every threshold is a
/// fresh bitmap) and the best case for one-pass fusion.
std::vector<EnumeratedPredicate> MakeFusedCandidates(
    const SyntheticOptions& gen, size_t count) {
  std::vector<EnumeratedPredicate> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::vector<Clause> clauses;
    const std::string cat = "c" + std::to_string(i % gen.num_categorical_attrs);
    clauses.push_back(Clause::Make(
        cat, CompareOp::kEq,
        Value("cat_" + std::to_string(i % gen.categorical_cardinality))));
    const size_t numeric = 2 + i % 2;  // K = 3 or 4 with the categorical
    for (size_t j = 0; j < numeric; ++j) {
      const std::string col =
          "a" + std::to_string((i + j) % gen.num_numeric_attrs);
      // Golden-ratio stride: every cut distinct, spread over [-2, 2).
      const double frac =
          std::fmod(static_cast<double>(i * 3 + j) * 0.618033988749895, 1.0);
      clauses.push_back(Clause::Make(
          col, j % 2 == 0 ? CompareOp::kGe : CompareOp::kLe,
          Value(-2.0 + 4.0 * frac)));
    }
    EnumeratedPredicate ep;
    ep.predicate = Predicate(clauses);
    ep.strategy = "bench";
    out.push_back(std::move(ep));
  }
  return out;
}

FusedProblem BuildProblem(size_t rows = 100000, size_t num_preds = 600) {
  SyntheticOptions gen;
  gen.num_rows = rows;
  gen.num_numeric_attrs = 4;
  gen.num_categorical_attrs = 4;
  gen.anomaly_selectivity = 0.03;

  FusedProblem p;
  p.data = *GenerateSyntheticDataset(gen);
  AggregateQuery query =
      *ParseQuery("SELECT g, avg(v) AS a FROM synthetic GROUP BY g");
  p.result = *ExecuteQuery(query, *p.data.table);
  for (size_t g = 0; g < p.result.num_groups(); ++g) {
    if (p.result.AggValue(g, 0) >= 50.8) p.selected_groups.push_back(g);
  }
  p.metric = TooHigh(50.0);
  PreprocessResult pre = *Preprocessor::Run(*p.data.table, p.result,
                                            p.selected_groups, *p.metric);
  p.suspects = pre.suspect_inputs;
  p.per_group_baseline = pre.per_group_baseline_error;
  std::vector<const TupleInfluence*> positive;
  for (const TupleInfluence& ti : pre.influences) {
    if (ti.influence > 0.0) positive.push_back(&ti);
  }
  for (size_t i = 0; i < positive.size() / 4; ++i) {
    p.reference.push_back(positive[i]->row);
  }
  std::sort(p.reference.begin(), p.reference.end());
  p.predicates = MakeFusedCandidates(gen, num_preds);
  return p;
}

/// Exact identity of a clause (doubles by bit pattern, so distinct
/// thresholds never collide).
std::string ClauseKey(const Clause& c) {
  std::string key =
      c.attribute + '\x1f' + std::to_string(static_cast<int>(c.op));
  if (c.literal.is_double()) {
    const double d = c.literal.dbl();
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return key + "\x1f" "d" + std::to_string(bits);
  }
  return key + '\x1f' + c.literal.ToString();
}

/// Cold materialize+word-AND matching: each distinct clause scanned
/// once into its own bitmap (clauses in parallel on the pool), then one
/// copy + AndWith chain per predicate.
std::vector<Bitmap> MatchWordAnd(const FusedProblem& p,
                                 size_t* clause_bitmaps = nullptr) {
  std::unordered_map<std::string, size_t> slot;
  std::vector<const Clause*> distinct;
  for (const EnumeratedPredicate& ep : p.predicates) {
    for (const Clause& c : ep.predicate.clauses()) {
      if (slot.emplace(ClauseKey(c), distinct.size()).second) {
        distinct.push_back(&c);
      }
    }
  }
  std::vector<Bitmap> bits(distinct.size());
  ParallelForEach(0, distinct.size(), [&](size_t i) {
    const CompiledClause cc = *CompileClause(*distinct[i], *p.data.table);
    bits[i] = Bitmap(p.suspects.size());
    MatchClauseWords(cc, p.suspects, 0, bits[i].num_words(), &bits[i]);
  });
  std::vector<Bitmap> out;
  out.reserve(p.predicates.size());
  for (const EnumeratedPredicate& ep : p.predicates) {
    const auto& clauses = ep.predicate.clauses();
    Bitmap bm = bits[slot.at(ClauseKey(clauses[0]))];
    for (size_t j = 1; j < clauses.size(); ++j) {
      bm.AndWith(bits[slot.at(ClauseKey(clauses[j]))]);
    }
    out.push_back(std::move(bm));
  }
  if (clause_bitmaps != nullptr) *clause_bitmaps = distinct.size();
  return out;
}

enum class Path { kFused, kFusedScalar };

/// Cold end-to-end matching: fresh engine, Materialize, then one
/// bitmap per predicate — the work one Explain pass performs. The SIMD
/// tier is selected via the environment, read once at engine
/// construction.
std::vector<Bitmap> MatchAll(const FusedProblem& p, Path path,
                             MatchEngine* engine_out = nullptr) {
  if (path == Path::kFusedScalar) setenv("DBWIPES_SIMD", "off", 1);
  MatchEngine engine(*p.data.table, p.suspects);
  unsetenv("DBWIPES_SIMD");
  std::vector<const Predicate*> preds;
  preds.reserve(p.predicates.size());
  for (const EnumeratedPredicate& ep : p.predicates) {
    preds.push_back(&ep.predicate);
  }
  DBW_CHECK_OK(engine.Materialize(preds));
  std::vector<Bitmap> out;
  out.reserve(preds.size());
  for (const Predicate* pred : preds) {
    out.push_back(*engine.MatchPrepared(*pred));
  }
  if (engine_out != nullptr) *engine_out = std::move(engine);
  return out;
}

std::vector<RankedPredicate> RunRanker(const FusedProblem& p, Path path) {
  if (path == Path::kFusedScalar) setenv("DBWIPES_SIMD", "off", 1);
  auto ranked = PredicateRanker().Rank(
      *p.data.table, p.result, p.selected_groups, *p.metric,
      /*agg_index=*/0, p.suspects, p.reference, p.per_group_baseline,
      p.predicates);
  unsetenv("DBWIPES_SIMD");
  DBW_CHECK_OK(ranked.status());
  return *std::move(ranked);
}

double MedianMs(const std::function<void()>& fn, int reps) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

bool SameOrder(const std::vector<RankedPredicate>& a,
               const std::vector<RankedPredicate>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].predicate.CanonicalString() != b[i].predicate.CanonicalString())
      return false;
  }
  return true;
}

/// Prints the report and writes BENCH_fused.json; false when an
/// identity check failed.
bool PrintReportAndJson() {
  std::printf(
      "=== fused conjunctions: one-pass programs vs materialize+word-AND "
      "===\n\n");
  FusedProblem p = BuildProblem();
  std::printf("rows=%zu  |F|=%zu  predicates=%zu (K in {3,4})\n\n",
              p.data.table->num_rows(), p.suspects.size(),
              p.predicates.size());

  const int reps = 5;
  size_t word_bitmaps = 0;
  const std::vector<Bitmap> word_and = MatchWordAnd(p, &word_bitmaps);
  const double word_ms = MedianMs([&] { MatchWordAnd(p); }, reps);

  MatchEngine fused_probe(*p.data.table, {});
  const std::vector<Bitmap> fused = MatchAll(p, Path::kFused, &fused_probe);
  const double fused_ms = MedianMs([&] { MatchAll(p, Path::kFused); }, reps);

  const std::vector<Bitmap> scalar = MatchAll(p, Path::kFusedScalar);
  const double scalar_ms =
      MedianMs([&] { MatchAll(p, Path::kFusedScalar); }, reps);

  bool bitmaps_equal = word_and.size() == fused.size() &&
                       word_and.size() == scalar.size();
  for (size_t i = 0; bitmaps_equal && i < word_and.size(); ++i) {
    bitmaps_equal = word_and[i] == fused[i] && word_and[i] == scalar[i];
  }

  // The word-AND bitmaps equal both fused tiers' (checked above), so
  // a ranking over them would score identical inputs; the rankings
  // compared here are the two fused tiers'.
  const auto ranked_fused = RunRanker(p, Path::kFused);
  const auto ranked_scalar = RunRanker(p, Path::kFusedScalar);
  const bool orders_match = SameOrder(ranked_fused, ranked_scalar);

  const double preds = static_cast<double>(p.predicates.size());
  TablePrinter table({"path", "median_ms", "preds_per_sec", "speedup"});
  table.AddRow({"word_and_per_clause", Fmt(word_ms, 1),
                Fmt(preds / word_ms * 1000.0, 0), "1.0"});
  table.AddRow({std::string("fused_") + SimdTierName(fused_probe.simd_tier()),
                Fmt(fused_ms, 1), Fmt(preds / fused_ms * 1000.0, 0),
                Fmt(word_ms / fused_ms, 1)});
  table.AddRow({"fused_scalar", Fmt(scalar_ms, 1),
                Fmt(preds / scalar_ms * 1000.0, 0),
                Fmt(word_ms / scalar_ms, 1)});
  table.Print();
  const MatchCounters fc = fused_probe.counters();
  std::printf(
      "\nword-AND path: %zu clause bitmaps; fused path: %zu bitmaps + %zu "
      "programs (%zu compiles, %zu fallbacks, %.1f ms compile)\n",
      word_bitmaps, fused_probe.num_cached_clauses(),
      fused_probe.num_fused_programs(), fc.fused_compiles,
      fc.fused_fallbacks, fc.fused_compile_ms);
  std::printf("bitmaps identical across paths: %s\n",
              bitmaps_equal ? "yes" : "NO — BUG");
  std::printf("identical rank orderings (fused / scalar): %s\n\n",
              orders_match ? "yes" : "NO — BUG");

  FILE* f = std::fopen("BENCH_fused.json", "w");
  if (f != nullptr) {
    std::fprintf(
        f,
        "{\n"
        "  \"scenario\": {\"rows\": %zu, \"predicates\": %zu, "
        "\"suspects\": %zu, \"clauses_per_predicate\": \"3-4\"},\n"
        "  \"word_and\": {\"path\": \"materialize_word_and\", "
        "\"median_ms\": %.3f, \"predicates_per_sec\": %.1f, "
        "\"clause_bitmaps\": %zu},\n"
        "  \"fused\": {\"path\": \"fused_one_pass\", \"simd_tier\": \"%s\", "
        "\"median_ms\": %.3f, \"predicates_per_sec\": %.1f, "
        "\"clause_bitmaps\": %zu, \"programs\": %zu, \"compiles\": %zu, "
        "\"fallbacks\": %zu, \"compile_ms\": %.3f},\n"
        "  \"fused_scalar\": {\"path\": \"fused_one_pass\", "
        "\"simd_tier\": \"scalar\", \"median_ms\": %.3f, "
        "\"predicates_per_sec\": %.1f},\n"
        "  \"speedup_fused\": %.2f,\n"
        "  \"speedup_fused_scalar\": %.2f,\n"
        "  \"bitmaps_identical\": %s,\n"
        "  \"orderings_identical\": %s\n"
        "}\n",
        p.data.table->num_rows(), p.predicates.size(), p.suspects.size(),
        word_ms, preds / word_ms * 1000.0, word_bitmaps,
        SimdTierName(fused_probe.simd_tier()), fused_ms,
        preds / fused_ms * 1000.0, fused_probe.num_cached_clauses(),
        fused_probe.num_fused_programs(), fc.fused_compiles,
        fc.fused_fallbacks, fc.fused_compile_ms,
        scalar_ms, preds / scalar_ms * 1000.0, word_ms / fused_ms,
        word_ms / scalar_ms, bitmaps_equal ? "true" : "false",
        orders_match ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_fused.json\n\n");
  }
  return bitmaps_equal && orders_match;
}

const FusedProblem& SmallProblem() {
  static const FusedProblem* p = new FusedProblem(BuildProblem(20000, 200));
  return *p;
}

void BM_MatchWordAnd(benchmark::State& state) {
  const FusedProblem& p = SmallProblem();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatchWordAnd(p));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(p.predicates.size()));
}
BENCHMARK(BM_MatchWordAnd)->Unit(benchmark::kMillisecond);

void BM_MatchFused(benchmark::State& state) {
  const FusedProblem& p = SmallProblem();
  const Path path = state.range(0) == 0 ? Path::kFused : Path::kFusedScalar;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatchAll(p, path));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(p.predicates.size()));
}
BENCHMARK(BM_MatchFused)
    ->Arg(0)   // dispatched SIMD tier
    ->Arg(1)   // forced scalar tier
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dbwipes

int main(int argc, char** argv) {
  if (!dbwipes::PrintReportAndJson()) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
