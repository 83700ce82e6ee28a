#ifndef DBWIPES_EXPR_MATCH_KERNELS_H_
#define DBWIPES_EXPR_MATCH_KERNELS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dbwipes/common/bitmap.h"
#include "dbwipes/common/parallel.h"
#include "dbwipes/common/result.h"
#include "dbwipes/expr/fused_kernels.h"
#include "dbwipes/expr/predicate.h"
#include "dbwipes/storage/table.h"

namespace dbwipes {

/// \brief A clause translated once into a typed batch-kernel program.
///
/// Numeric clauses become a double comparison against the column's
/// flat int64/double storage (int64 widens to double exactly like
/// Column::AsDouble). String clauses are translated to dictionary-code
/// comparisons: kEq/kNe compare a single code, kIn/kContains gather
/// through a per-code truth table built once from the dictionary (so a
/// CONTAINS scan costs one substring search per *distinct string*, not
/// per row). Null rows never match; string kernels exploit the code -1
/// null sentinel, numeric kernels fold the validity vector in without
/// per-row branching on boxed values.
///
/// Match semantics are identical to Clause::Matches (the boxed
/// row-at-a-time path): kLe/kGe are the negated strict comparisons, so
/// NaN cells satisfy kLe/kGe/kNe and nothing else; a NaN probe is IN
/// nothing; a string literal absent from the dictionary (FindCode ==
/// -1) makes kEq match nothing and kNe match every non-null row.
struct CompiledClause {
  const Column* column = nullptr;
  CompareOp op = CompareOp::kEq;
  bool is_string = false;
  /// Numeric binary comparisons.
  double threshold = 0.0;
  /// String kEq/kNe dictionary code; -2 = literal absent.
  int32_t code = -2;
  /// kIn over numerics: sorted, NaN-free.
  std::vector<double> in_numbers;
  /// String kIn/kContains: truth per dictionary code, shifted by one so
  /// index 0 answers the null sentinel code -1 (always false).
  std::vector<uint8_t> code_table;
};

/// Translates `clause` against `table`. Returns exactly the errors
/// Predicate::Bind would (ordered comparison on a string column,
/// string/numeric literal mismatches, ...), so engine users see
/// unchanged failure behavior.
Result<CompiledClause> CompileClause(const Clause& clause, const Table& table);

/// Evaluates `clause` over positions [64*word_begin, 64*word_end) of
/// `rows` (clamped to rows.size()), writing one whole bitmap word per
/// 64 positions: bit i of `out` = clause matches rows[i]. Chunks that
/// own disjoint word ranges may run concurrently on the same bitmap.
void MatchClauseWords(const CompiledClause& clause,
                      const std::vector<RowId>& rows, size_t word_begin,
                      size_t word_end, Bitmap* out);

/// \brief The MatchEngine's counters, declared once: the engine keeps
/// one, RankStats and the ExplainProfile hold one, each shard lane
/// holds one, and the registry's `match.*` counters are published from
/// deltas of it.
///
/// Laws: every canonical-key probe counts exactly one of cache_hits /
/// cache_misses (clause lookups are their sum), and every multi-clause
/// predicate a Materialize batch examines counts exactly one of
/// fused_hits (program already cached), fused_compiles (newly lowered)
/// or fused_fallbacks (unfusible, or all clauses shared, so word-AND).
struct MatchCounters {
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// Clause bitmaps actually scanned (supported cache misses).
  size_t bitmaps_materialized = 0;
  size_t fused_lookups = 0;
  size_t fused_hits = 0;
  size_t fused_compiles = 0;
  size_t fused_fallbacks = 0;
  /// MatchPrepared calls answered by a one-pass fused evaluation.
  size_t fused_evals = 0;
  /// Wall ms spent planning + lowering fused programs.
  double fused_compile_ms = 0.0;

  size_t clause_lookups() const { return cache_hits + cache_misses; }
  MatchCounters& operator+=(const MatchCounters& other);
  /// Per-run delta of a cumulative counter set: `after - before`.
  MatchCounters operator-(const MatchCounters& before) const;
};

/// \brief Vectorized conjunction matching with a shared clause-bitmap
/// cache.
///
/// Bound to one table and one row universe (e.g. the suspect set F, a
/// selectivity sample, or the union of a result's lineage). Enumerators
/// emit many conjunctions sharing single-attribute clauses — threshold
/// families on one column, repeated categorical equalities — so the
/// engine canonicalizes each clause to a key, materializes its bitmap
/// ONCE via the typed kernels, and matches a conjunction by ANDing
/// cached words. CompileClause rejects exactly the clauses Bind
/// rejects, with the same messages, so a clause that does not compile
/// is cached with its compile Status and every match touching it
/// returns that Status — the error Bind would have reported.
///
/// The engine is a snapshot: it caches bitmaps against the table size
/// at construction, and every Match checks that the table has not
/// grown since (append invalidates; rebuild the engine). See DESIGN.md
/// §5d.
///
/// Fused conjunctions (DESIGN.md §5i): Materialize additionally lowers
/// multi-clause predicates with at least one clause unique within the
/// batch into one-pass FusedPrograms — per 64-row block every clause
/// becomes a register word ANDed in place, with no intermediate
/// per-clause bitmaps — dispatched to a cpuid-selected SIMD tier
/// (DBWIPES_SIMD=off forces the bit-identical scalar tier). Clauses
/// shared across the batch (threshold families, repeated equalities)
/// stay on the materialize-once path and enter fused programs as
/// cached bitmap references; a predicate whose clauses are all shared
/// is matched by word-AND. Programs are cached keyed by the sorted
/// canonical clause-key set, so shard engines reuse compilations
/// across re-explains.
///
/// Thread safety: Materialize() mutates the cache (its own scans run
/// chunked on the PR-1 ParallelFor; output is deterministic at any
/// thread count because chunk boundaries depend only on sizes).
/// MatchPrepared() is const and touches only cached state, so any
/// number of threads may call it concurrently after Materialize().
///
/// Movable; no concurrent use may straddle a move. Fused-program op
/// pointers into the validity bitmaps survive the move: the pointed
/// heap buffers do not relocate.
class MatchEngine {
 public:
  MatchEngine(const Table& table, std::vector<RowId> rows);

  const std::vector<RowId>& rows() const { return rows_; }

  /// Compiles and materializes every distinct clause of `predicates`
  /// that is not cached yet, scanning in word-aligned chunks on the
  /// shared pool. A clause that does not compile is not an error here:
  /// its Status is cached and returned by every match that needs it.
  /// Errors are interrupts, budget exhaustion, staleness and faults;
  /// on any of them the batch's additions are rolled back.
  Status Materialize(const std::vector<const Predicate*>& predicates,
                     const ParallelOptions& options = {});

  /// Bitmap of one predicate over the universe (bit i = matches
  /// rows[i]; empty predicate = all ones). Requires every clause to
  /// have been seen by Materialize(); const, safe for concurrent use.
  /// Predicates Materialize compiled into a fused program evaluate in
  /// one pass over the columns; everything else takes the word-AND of
  /// cached clause bitmaps. Both paths produce bit-identical bitmaps.
  /// A clause that failed to compile yields its compile Status (the
  /// first such clause in predicate order, as Bind reports).
  Result<Bitmap> MatchPrepared(const Predicate& predicate) const;

  /// Anytime variant: fused evaluation checks `ctx` every few hundred
  /// words, so a cancellation or deadline inside a long scan returns
  /// the interrupt status instead of finishing the pass (the partial
  /// bitmap is discarded — clean rollback).
  Result<Bitmap> MatchPrepared(const Predicate& predicate,
                               const ExecContext& ctx) const;

  /// Serial convenience: Materialize({&predicate}) + MatchPrepared.
  Result<Bitmap> Match(const Predicate& predicate);

  /// Bitmap of a single clause, materialized on demand (serial).
  Result<const Bitmap*> ClauseBitmap(const Clause& clause);

  /// Snapshot of the cumulative counters (for tests, benches and
  /// profiles; a per-run delta is `after - before`).
  MatchCounters counters() const;
  size_t num_cached_clauses() const { return entries_.size(); }
  /// Compiled predicate programs retained in the cache.
  size_t num_fused_programs() const { return fused_entries_.size(); }
  /// Table size the cache snapshot was built against; a cached engine
  /// is reusable only while its table still has exactly this many rows.
  size_t built_table_rows() const { return built_num_rows_; }
  SimdTier simd_tier() const { return tier_; }

 private:
  struct ClauseEntry {
    /// OK when the kernels cover the clause (`bits` is then valid once
    /// materialized); otherwise the compile error Bind also reports.
    Status compiled;
    Bitmap bits;
  };

  /// A compiled conjunction: the one-pass program plus the entry slots
  /// its kBitmapRef ops read (resolved to Bitmap pointers per eval, so
  /// entries_ may relocate between calls).
  struct FusedEntry {
    FusedProgram program;
    std::vector<size_t> ref_entries;  // ref_slot -> entries_ index
  };

  /// A relaxed atomic count that moves by value.
  struct AtomicCount {
    std::atomic<size_t> n{0};
    AtomicCount() = default;
    AtomicCount(AtomicCount&& other) noexcept
        : n(other.n.load(std::memory_order_relaxed)) {}
    AtomicCount& operator=(AtomicCount&& other) noexcept {
      n.store(other.n.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
      return *this;
    }
  };

  Status CheckFresh() const;

  /// The one clause-entry routine behind Materialize, Match and
  /// ClauseBitmap: caches every new clause of `predicates` (scanned
  /// bitmap, or the compile Status), and with `plan_fused` lowers the
  /// batch's fusible conjunctions first. Rolls the batch back on any
  /// error.
  Status AddToCache(const std::vector<const Predicate*>& predicates,
                    const ParallelOptions& options, bool plan_fused);

  /// Universe-positional validity bitmap for a numeric column with
  /// nulls, built once per column (heap-allocated: op pointers stay
  /// valid across rehashes and engine moves). Newly built columns are
  /// recorded in `added` for rollback.
  const Bitmap* EnsureValidity(const Column& col,
                               std::vector<const Column*>* added);

  /// One-pass evaluation of a cached fused program.
  Result<Bitmap> EvalFused(const FusedEntry& fe, const ExecContext& ctx) const;

  const Table* table_;
  std::vector<RowId> rows_;
  size_t built_num_rows_;  // table size the cache snapshot is valid for
  bool rows_contiguous_ = false;  // rows_[i] == rows_[0] + i
  SimdTier tier_ = SimdTier::kScalar;
  std::unordered_map<std::string, size_t> index_;  // canonical key -> entry
  std::vector<ClauseEntry> entries_;
  /// Sorted clause-key set -> fused_entries_ slot.
  std::unordered_map<std::string, size_t> fused_index_;
  std::vector<FusedEntry> fused_entries_;
  /// Column -> universe validity bitmap (shared by every fused op and
  /// SIMD clause scan over that column).
  std::unordered_map<const Column*, std::unique_ptr<Bitmap>> validity_;
  /// Every counter but fused_evals, which MatchPrepared bumps from the
  /// concurrent scoring threads and therefore lives in an atomic.
  MatchCounters counters_;
  mutable AtomicCount fused_evals_;
};

}  // namespace dbwipes

#endif  // DBWIPES_EXPR_MATCH_KERNELS_H_
