// End-to-end benchmark of the DBWipes `debug` gesture.
//
// It drives dbwipes::Service::Execute — the path dbwipes_server uses —
// through the paper's gesture: `sql` -> `select_range` -> `inputs_where`
// -> `metric` -> `debug`, then `clean 0` / `undo`, on generated Intel
// (paper Figure 4) and FEC (paper Figure 7) data. All load comes from
// this one process; every client is a closed loop (it sends its next
// command only after the previous reply).
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--short] [--work-dir <dir>] [--corrupt-truth]
//
// --trace 0 prints the end-to-end metrics: `debug` latency (lower
// quartile and tail), the gesture's latency (lower quartile), debugs per
// second, the top-1 predicate's F1 against the generator's labels, the
// share of commands answered ok, set-up time and peak memory.
// --trace 1 is the separate traced run: it
// calls the stage sequence of DBWipes::Explain from outside, one span
// per call, and prints per-layer self times, the Service's residual,
// the work counts of the `profile on` response, WAL counters, and the
// latencies of the short commands (sql, clean, append). Those take ~10 ms
// or less, and on a shared host their run medians swing with the host's
// CPU speed by more than any end-to-end bound allows, so they are
// reported per layer.
//
// The gated `debug` and gesture latencies are lower quartiles (p25), not
// medians. On a shared host, phases of a few seconds in which other
// tenants load the cores make the samples of a run bimodal (FEC `debug`:
// ~73 ms quiet, ~110 ms loaded). A run's median lands in either mode
// depending on how much of the run was loaded, so it jumps between runs
// of the same code by more than 25%; the lower quartile stays in the
// quiet mode unless most of the run was loaded. The medians are still
// printed in the report, and the tail carries the loaded mode.
//
// --short shrinks every data size (self-test). --corrupt-truth hands the
// output checks a wrong ground truth, which must make the run fail
// (self-test).
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 only when every output check passed.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dbwipes/common/stats.h"
#include "dbwipes/core/dbwipes.h"
#include "dbwipes/core/evaluation.h"
#include "dbwipes/core/export.h"
#include "dbwipes/core/preprocessor.h"
#include "dbwipes/core/service.h"
#include "dbwipes/datagen/fec_generator.h"
#include "dbwipes/datagen/intel_generator.h"
#include "dbwipes/expr/parser.h"
#include "dbwipes/learn/feature.h"
#include "dbwipes/storage/shard.h"
#include "json_reader.h"

namespace perfbench {
namespace {

using dbwipes::Database;
using dbwipes::DBWipes;
using dbwipes::ErrorMetric;
using dbwipes::ErrorMetricPtr;
using dbwipes::ExplainOptions;
using dbwipes::Explanation;
using dbwipes::QueryResult;
using dbwipes::Result;
using dbwipes::RowId;
using dbwipes::Service;
using dbwipes::ServiceOptions;
using dbwipes::Session;
using dbwipes::Table;

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// A second workload seed, kept out of the benchmark's own tuning, on
/// which a later performance claim must also hold.
constexpr uint64_t kValidationSeed = 4099;

struct WorkloadDef {
  const char* name;
  const char* why;
  /// Set-ups per untraced run; setup_s is their median.
  size_t setup_reps;
  /// Dashboard refreshes (`sql`) before each gesture's own `sql`. On
  /// intel_explain a gesture takes seconds, and without them a run
  /// would hold only a handful of query samples.
  size_t refreshes;
};

// Why each workload exists. The three stress different layers: the
// learn layer alone (intel_explain), query/clean and shared cores
// under concurrent analysts (fec_analysts), and storage/WAL plus the
// sharded explain path under writes (intel_stream).
constexpr WorkloadDef kWorkloads[] = {
    {"intel_explain",
     "Intel F4, 7 days at 5-minute readings (106,655 rows), unsharded, one "
     "analyst: subgroup beam and tree fits are ~99% of debug; the paper's "
     "own scale",
     3, 5},
    {"fec_analysts",
     "FEC F7, 200k donations, nproc concurrent analyst sessions: tree fits "
     "are small, D' cleaning and sql/clean weigh more, analysts share the "
     "cores",
     15, 0},
    {"intel_stream",
     "Intel trace streamed by one-row appends with the WAL on (group-commit "
     "fsync) into 4 shards, with refreshes and periodic debug: the only "
     "workload on storage/WAL, ShardPlan and warm shard engines",
     7, 0},
};

/// The paper's gesture, as Service commands.
struct Gesture {
  const char* sql;
  const char* select_agg;
  const char* select_lo;
  const char* select_hi;
  const char* inputs_filter;
  const char* metric_kind;
  double metric_expected;
  size_t agg_index;
};

// Figure 4: brush the high-stddev windows, D' = readings above 100
// degrees, "stddev is too high (expected <= 2)".
constexpr Gesture kIntelGesture = {
    "SELECT window, avg(temp) AS avg_temp, stddev(temp) AS sd_temp FROM "
    "readings GROUP BY window",
    "sd_temp", "8", "1000000000", "temp > 100", "too_high", 2.0, 1};

// Figure 7: brush McCain's negative days, D' = negative donations,
// "totals are too low (expected >= 0)".
constexpr Gesture kFecGesture = {
    "SELECT day, sum(amount) AS total FROM donations WHERE candidate = "
    "'MCCAIN' GROUP BY day",
    "total", "-1000000000", "-1", "amount < 0", "too_low", 0.0, 0};

ErrorMetricPtr MetricOf(const Gesture& g) {
  return std::strcmp(g.metric_kind, "too_high") == 0
             ? dbwipes::TooHigh(g.metric_expected)
             : dbwipes::TooLow(g.metric_expected);
}

std::string MetricCommand(const Gesture& g) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "metric %s %.17g %zu", g.metric_kind,
                g.metric_expected, g.agg_index);
  return buf;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  bool corrupt_truth = false;
  std::string work_dir = ".bench_run";
};

// ---------------------------------------------------------------------------
// Ground truth and output checks
// ---------------------------------------------------------------------------

/// What a correct `debug` answer looks like, from the generator's labels.
/// The F1 floors sit a little below what the top-ranked predicate
/// reaches on every seed tried: ~0.987-0.990 on intel_explain,
/// ~0.97-0.98 on intel_stream as it grows, 1.0 on fec_analysts.
struct Truth {
  /// Every generated row in RowId order (for the stream: the loaded
  /// prefix plus every row that may be appended).
  std::shared_ptr<const Table> table;
  std::vector<RowId> rows;  // anomalous rows, sorted
  double f1_floor = 0.0;
  /// Text the top-ranked predicate must contain ("" = none).
  std::string top1_must_contain;
};

/// Scores top-ranked predicates against the labels. Results are cached
/// per (predicate, visible rows): repeated gestures on unchanged data
/// re-score nothing.
class QualityChecker {
 public:
  explicit QualityChecker(const Truth& truth) : truth_(truth) {}

  /// F1 of `predicate_text` over the first `visible_rows` rows.
  Result<double> F1(const std::string& predicate_text, size_t visible_rows) {
    const auto key = std::make_pair(predicate_text, visible_rows);
    if (auto it = cache_.find(key); it != cache_.end()) return it->second;
    DBW_ASSIGN_OR_RETURN(dbwipes::Predicate predicate,
                         dbwipes::ParsePredicate(predicate_text));
    DBW_ASSIGN_OR_RETURN(dbwipes::BoundPredicate bound,
                         predicate.Bind(*truth_.table));
    std::vector<RowId> matched = bound.MatchingRows();
    matched.erase(std::lower_bound(matched.begin(), matched.end(),
                                   static_cast<RowId>(visible_rows)),
                  matched.end());
    std::vector<RowId> truth(
        truth_.rows.begin(),
        std::lower_bound(truth_.rows.begin(), truth_.rows.end(),
                         static_cast<RowId>(visible_rows)));
    const double f1 = dbwipes::ScoreTupleSet(matched, truth).f1;
    cache_.emplace(key, f1);
    return f1;
  }

 private:
  const Truth& truth_;
  std::map<std::pair<std::string, size_t>, double> cache_;
};

// ---------------------------------------------------------------------------
// Samples, statistics
// ---------------------------------------------------------------------------

/// One client's measurements. Merged across clients at the end.
struct Samples {
  std::vector<double> debug_ms, gesture_ms, query_ms, clean_ms, append_ms;
  size_t attempted = 0;
  size_t failed = 0;
  size_t debugs = 0;
  size_t f1_checks = 0;
  double min_f1 = 1.0;
  std::vector<std::string> failures;  // first few failed commands
  std::vector<std::string> problems;  // output-check failures

  void Fail(std::string what) {
    if (failures.size() < 5) failures.push_back(std::move(what));
  }
  void Problem(std::string what) {
    if (problems.size() < 5) problems.push_back(std::move(what));
  }
  void Merge(const Samples& o) {
    for (auto [dst, src] :
         {std::pair{&debug_ms, &o.debug_ms}, {&gesture_ms, &o.gesture_ms},
          {&query_ms, &o.query_ms}, {&clean_ms, &o.clean_ms},
          {&append_ms, &o.append_ms}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    debugs += o.debugs;
    MergeChecks(o);
  }
  /// Counts and check results only, not latencies.
  void MergeChecks(const Samples& o) {
    attempted += o.attempted;
    failed += o.failed;
    f1_checks += o.f1_checks;
    min_f1 = std::min(min_f1, o.min_f1);
    for (const auto& f : o.failures) Fail(f);
    for (const auto& p : o.problems) Problem(p);
  }
};

/// Percentile by linear interpolation between order statistics.
double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double Median(const std::vector<double>& xs) { return Percentile(xs, 50.0); }

double Mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double v : xs) sum += v;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

/// The highest percentile with at least ten samples beyond it. With
/// fewer than 20 samples no percentile above the median qualifies and
/// the median is reported (the percentile field then reads 50).
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
  size_t samples = 0;
};

Tail TailOf(const std::vector<double>& xs) {
  Tail t;
  t.samples = xs.size();
  for (double p : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0}) {
    const double beyond = static_cast<double>(xs.size()) * (100.0 - p) / 100.0;
    if (beyond + 1e-9 >= 10.0) {
      t.percentile = p;
      t.value = Percentile(xs, p);
      return t;
    }
  }
  t.value = Median(xs);
  return t;
}

double PeakRssMb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------------------
// Spans (traced run only)
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  uint64_t gesture = 0;
  int parent = -1;
  Clock::time_point start, end;
};

/// One client thread's spans, kept in memory and written at the end.
class SpanRecorder {
 public:
  int Begin(const char* name, uint64_t gesture) {
    Span s;
    s.name = name;
    s.gesture = gesture;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = Clock::now();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end = Clock::now();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, uint64_t gesture)
      : rec_(rec), id_(rec.Begin(name, gesture)) {}
  ~ScopedSpan() { rec_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

template <typename F>
auto InSpan(SpanRecorder& rec, const char* name, uint64_t gesture, F&& f) {
  ScopedSpan span(rec, name, gesture);
  return f();
}

/// The stage spans of the traced debug step, in pipeline order. Their
/// self times plus the parent `core.explain` self time add up to the
/// staged explain's wall time.
constexpr const char* kStageSpans[] = {
    "learn.feature_view",       "provenance.preprocess",
    "core.clean_dprime",        "core.dataset_enumerate",
    "core.predicate_enumerate", "core.rank",
    "core.merge",               "core.export"};

/// Work counts read from each traced `debug` response's profile (the
/// program computes them already; the benchmark adds no counters).
struct ProfileField {
  const char* name;
  const char* path[3];
};
constexpr ProfileField kProfileFields[] = {
    {"pipeline_ms", {"stage_ms", "total"}},
    {"candidate_datasets", {"work", "candidate_datasets"}},
    {"predicates_enumerated", {"work", "predicates_enumerated"}},
    {"predicates_scored", {"work", "predicates_scored"}},
    {"clause_lookups", {"match_engine", "clause_lookups"}},
    {"cache_hits", {"match_engine", "cache_hits"}},
    {"fused_lookups", {"match_engine", "fused", "lookups"}},
    {"fused_hits", {"match_engine", "fused", "hits"}},
    {"shard_engines_reused", {"shards", "engines_reused"}},
    {"pool_utilization", {"thread_pool", "utilization"}},
};

struct TracedGesture {
  uint64_t id = 0;
  double service_debug_ms = 0.0;
  std::map<std::string, double> profile;  // by ProfileField name
};

/// WAL counters accumulated over the probed append batches (from
/// `wal status` and `stats`, read before and after the batch).
struct WalTally {
  double rows = 0, fsyncs = 0, bytes = 0;
};

struct TraceData {
  SpanRecorder rec;
  std::vector<TracedGesture> gestures;
  std::vector<double> untraced_debug_ms, traced_debug_ms;
  WalTally wal;
  bool next_traced = false;  // traced and untraced gestures alternate
};

// ---------------------------------------------------------------------------
// The client
// ---------------------------------------------------------------------------

bool IsOk(const Json& r) { return r["ok"].IsTrue() && !r["partial"].IsTrue(); }

/// One analyst (or ingest) connection: routes commands to its session,
/// times each Execute call, and parses and counts every response.
class Client {
 public:
  Client(Service& svc, std::string session, Samples* samples)
      : svc_(svc), session_(std::move(session)), samples_(samples) {}

  const std::string& session() const { return session_; }

  /// Runs a session command (`@<session> <cmd>`).
  Json Run(const std::string& cmd, double* ms = nullptr) {
    return Send("@" + session_ + " " + cmd, ms);
  }

  /// Runs a process-wide command (append, shards, wal, stats).
  Json Send(const std::string& line, double* ms = nullptr) {
    const Clock::time_point t0 = Clock::now();
    const std::string response = svc_.Execute(line);
    const Clock::time_point t1 = Clock::now();
    if (ms != nullptr) *ms = MsBetween(t0, t1);
    ++samples_->attempted;
    std::optional<Json> parsed = JsonParser::Parse(response);
    if (!parsed || !IsOk(*parsed)) {
      ++samples_->failed;
      samples_->Fail(line.substr(0, 80) + " -> " + response.substr(0, 200));
      return parsed ? *parsed : Json{};
    }
    return *std::move(parsed);
  }

 private:
  Service& svc_;
  std::string session_;
  Samples* samples_;
};

// ---------------------------------------------------------------------------
// The traced debug step
// ---------------------------------------------------------------------------

struct StagedOutcome {
  std::string json;  // ExplanationToJson of the staged explanation
  dbwipes::Predicate top;
};

/// The stage sequence of DBWipes::Explain, called directly through each
/// layer's public entry point, one span per call. Runs on the session's
/// own state (result, S, D') right after the Service answered `debug`.
Result<StagedOutcome> StagedExplain(SpanRecorder& rec, uint64_t gesture,
                                    const Database& db,
                                    const ExplainOptions& options,
                                    const Session& session,
                                    const ErrorMetric& metric,
                                    size_t agg_index) {
  using namespace dbwipes;
  const QueryResult& result = session.result();
  const std::vector<size_t>& groups = session.selected_groups();
  const std::vector<RowId>& dprime = session.selected_inputs();

  StagedOutcome staged;
  Explanation out;
  {
    ScopedSpan root(rec, "core.explain", gesture);
    DBW_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table,
                         db.GetTable(result.query.table_name));
    std::shared_ptr<ShardSet> shard_set =
        db.GetShardSet(result.query.table_name);
    std::shared_lock<std::shared_mutex> lease;
    if (shard_set != nullptr) lease = shard_set->ReadLease();

    const std::vector<std::string> columns =
        DefaultExplainColumns(*table, result.query, agg_index);
    DBW_ASSIGN_OR_RETURN(
        FeatureView view, InSpan(rec, "learn.feature_view", gesture, [&] {
          return FeatureView::Create(*table, columns);
        }));
    DBW_ASSIGN_OR_RETURN(
        out.preprocess, InSpan(rec, "provenance.preprocess", gesture, [&] {
          return Preprocessor::Run(*table, result, groups, metric, agg_index,
                                   options.per_group_influence);
        }));
    ShardPlan shard_plan;
    const ShardPlan* plan = nullptr;
    if (shard_set != nullptr) {
      shard_plan = ShardPlan::Build(*shard_set, out.preprocess.suspect_inputs);
      plan = &shard_plan;
    }

    DatasetEnumerator enumerator(options.enumerator);
    DBW_ASSIGN_OR_RETURN(
        out.cleaned_dprime, InSpan(rec, "core.clean_dprime", gesture, [&] {
          return enumerator.CleanDPrime(*table, dprime,
                                        out.preprocess.suspect_inputs,
                                        out.preprocess.influences, view);
        }));
    DBW_ASSIGN_OR_RETURN(
        out.candidates, InSpan(rec, "core.dataset_enumerate", gesture, [&] {
          return enumerator.Enumerate(*table, result, groups, out.preprocess,
                                      dprime, view, metric, agg_index);
        }));

    PredicateEnumerator predicate_enumerator(options.predicates);
    DBW_ASSIGN_OR_RETURN(
        std::vector<EnumeratedPredicate> enumerated,
        InSpan(rec, "core.predicate_enumerate", gesture, [&] {
          return predicate_enumerator.Enumerate(
              view, out.preprocess.suspect_inputs, out.candidates,
              ExecContext::None(), plan);
        }));

    // The ranker's accuracy reference, exactly as Explain builds it.
    std::vector<RowId> reference = out.cleaned_dprime;
    if (reference.empty()) {
      std::vector<double> positive;
      for (const TupleInfluence& ti : out.preprocess.influences) {
        if (ti.influence > 0.0) positive.push_back(ti.influence);
      }
      if (!positive.empty()) {
        const double cutoff =
            Quantile(positive, options.enumerator.influence_quantile);
        for (const TupleInfluence& ti : out.preprocess.influences) {
          if (ti.influence > 0.0 && ti.influence >= cutoff) {
            reference.push_back(ti.row);
          }
        }
      }
      std::sort(reference.begin(), reference.end());
    }

    PredicateRanker ranker(options.ranker);
    DBW_ASSIGN_OR_RETURN(RankOutcome outcome,
                         InSpan(rec, "core.rank", gesture, [&] {
                           return ranker.RankAnytime(
                               *table, result, groups, metric, agg_index,
                               out.preprocess.suspect_inputs, reference,
                               out.preprocess.per_group_baseline_error,
                               enumerated, ExecContext::None(), plan);
                         }));
    out.predicates = std::move(outcome.predicates);
    out.ranked_considered = outcome.scored_prefix;
    out.total_enumerated = outcome.total_candidates;
    out.partial = outcome.partial;
    if (options.merge_predicates && !out.partial) {
      DBW_ASSIGN_OR_RETURN(
          out.predicates, InSpan(rec, "core.merge", gesture, [&] {
            return MergeAndRerank(*table, result, groups, metric, agg_index,
                                  out.preprocess.suspect_inputs, reference,
                                  out.preprocess.per_group_baseline_error,
                                  out.predicates, options.ranker,
                                  options.merger, plan);
          }));
    }
    staged.json = InSpan(rec, "core.export", gesture, [&] {
      return ExplanationToJson(out, /*pretty=*/false);
    });
  }
  if (!out.predicates.empty()) staged.top = out.predicates[0].predicate;
  return staged;
}

/// The ranked list of an explanation JSON: one "predicate|score" entry
/// per predicate, with the score's literal digits.
std::vector<std::string> RankedList(const Json& explanation) {
  std::vector<std::string> out;
  for (const Json& p : explanation["predicates"].items) {
    out.push_back(p["predicate"].text + "|" + p["score"].text);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The gesture loop
// ---------------------------------------------------------------------------

/// Everything one client thread needs to run gestures and check them.
struct Analyst {
  Client client;
  const Gesture& gesture;
  QualityChecker quality;
  Samples* samples;
  TraceData* trace;  // null in the untraced run
  Service& svc;
  uint64_t next_gesture_id;
};

/// Checks one `debug` response: a non-empty ranking whose top predicate
/// meets the quality floor against the labels of the visible rows.
void CheckDebug(Analyst& a, const Truth& truth, const Json& response,
                size_t visible_rows) {
  Samples& s = *a.samples;
  const Json& preds = response["explanation"]["predicates"];
  if (preds.items.empty()) {
    s.Problem("debug returned no predicates");
    return;
  }
  const std::string top = preds.items[0]["predicate"].text;
  if (!truth.top1_must_contain.empty() &&
      top.find(truth.top1_must_contain) == std::string::npos) {
    s.Problem("top-1 predicate '" + top + "' does not name " +
              truth.top1_must_contain);
  }
  Result<double> f1 = a.quality.F1(top, visible_rows);
  if (!f1.ok()) {
    s.Problem("cannot score top-1 '" + top + "': " + f1.status().ToString());
    return;
  }
  ++s.f1_checks;
  s.min_f1 = std::min(s.min_f1, *f1);
  if (*f1 < truth.f1_floor) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f < floor %.4f", *f1, truth.f1_floor);
    s.Problem("top-1 F1 " + std::string(buf) + " for '" + top + "'");
  }
}

/// The traced half of a traced gesture: runs after the Service's
/// `debug`, while the session still holds that request's state.
void TraceDebug(Analyst& a, uint64_t id, const Json& response,
                double service_debug_ms) {
  TraceData& tr = *a.trace;
  std::shared_ptr<dbwipes::ManagedSession> ms =
      a.svc.sessions().Find(a.client.session());
  if (ms == nullptr) {
    a.samples->Problem("traced run: session " + a.client.session() +
                       " not found");
    return;
  }
  std::lock_guard<std::mutex> lock(ms->mu);
  const Database& db = *a.svc.sessions().database();
  const ExplainOptions& options = a.svc.sessions().explain_options();
  Result<StagedOutcome> staged =
      StagedExplain(tr.rec, id, db, options, ms->session, *MetricOf(a.gesture),
                    a.gesture.agg_index);
  if (!staged.ok()) {
    a.samples->Problem("traced debug failed: " + staged.status().ToString());
    return;
  }
  std::optional<Json> staged_json = JsonParser::Parse(staged->json);
  if (!staged_json ||
      RankedList(*staged_json) != RankedList(response["explanation"])) {
    a.samples->Problem(
        "traced ranking differs from the Service debug ranking");
  }

  // The dashboard refresh and the cleaning click, timed at the query layer.
  {
    ScopedSpan span(tr.rec, "query.execute", id);
    if (!db.ExecuteSql(a.gesture.sql).ok()) {
      a.samples->Problem("Database::ExecuteSql failed");
    }
  }
  {
    ScopedSpan span(tr.rec, "query.clean_execute", id);
    DBWipes engine(a.svc.sessions().database(), options);
    if (!engine.Clean(ms->session.result(), staged->top).ok()) {
      a.samples->Problem("DBWipes::Clean failed");
    }
  }

  TracedGesture g;
  g.id = id;
  g.service_debug_ms = service_debug_ms;
  for (const ProfileField& f : kProfileFields) {
    const Json* node = &response["profile"];
    for (const char* key : f.path) {
      if (key != nullptr) node = &(*node)[key];
    }
    g.profile[f.name] = node->Num();
  }
  tr.gestures.push_back(std::move(g));
}

/// sql -> select_range -> inputs_where -> metric -> debug, then (with
/// `clean`) `clean 0` / `undo`. `visible_rows` bounds the labels the
/// answer is checked against. Stops at the first failed command.
void GestureCycle(Analyst& a, const Truth& truth, size_t visible_rows,
                  bool clean) {
  Samples& s = *a.samples;
  Client& c = a.client;
  const Gesture& g = a.gesture;
  const uint64_t id = a.next_gesture_id++;

  bool traced = false;
  if (a.trace != nullptr) {
    traced = a.trace->next_traced;
    a.trace->next_traced = !traced;
    if (!IsOk(c.Run(traced ? "profile on" : "profile off"))) return;
  }

  double ms_sql = 0, ms_sel = 0, ms_in = 0, ms_met = 0, ms_dbg = 0;
  if (!IsOk(c.Run(std::string("sql ") + g.sql, &ms_sql))) return;
  s.query_ms.push_back(ms_sql);
  if (!IsOk(c.Run(std::string("select_range ") + g.select_agg + " " +
                      g.select_lo + " " + g.select_hi,
                  &ms_sel))) {
    return;
  }
  if (!IsOk(c.Run(std::string("inputs_where ") + g.inputs_filter, &ms_in))) {
    return;
  }
  if (!IsOk(c.Run(MetricCommand(g), &ms_met))) return;
  const Json debug = c.Run("debug", &ms_dbg);
  if (!IsOk(debug)) return;
  ++s.debugs;
  s.debug_ms.push_back(ms_dbg);
  s.gesture_ms.push_back(ms_sql + ms_sel + ms_in + ms_met + ms_dbg);
  CheckDebug(a, truth, debug, visible_rows);

  if (a.trace != nullptr) {
    (traced ? a.trace->traced_debug_ms : a.trace->untraced_debug_ms)
        .push_back(ms_dbg);
    if (traced) TraceDebug(a, id, debug, ms_dbg);
  }

  if (!clean) return;
  double ms_clean = 0;
  if (!IsOk(c.Run("clean 0", &ms_clean))) return;
  s.clean_ms.push_back(ms_clean);
  c.Run("undo");
}

// ---------------------------------------------------------------------------
// Data
// ---------------------------------------------------------------------------

struct Dataset {
  Truth truth;
  /// The table the Service starts with (the stream's loaded prefix).
  std::shared_ptr<const Table> initial;
  /// intel_stream: one `append` line per remaining trace row, in time order.
  std::vector<std::string> appends;
  std::string description;
};

dbwipes::IntelOptions IntelTrace(uint64_t seed, int64_t days, double interval,
                        int64_t fault1_minute, int64_t fault2_minute) {
  dbwipes::IntelOptions gen;
  gen.seed = seed;
  gen.duration_days = days;
  gen.reading_interval_minutes = interval;
  gen.faults = {{15, fault1_minute, 720, 122.0}, {18, fault2_minute, 720, 110.0}};
  return gen;
}

std::string AppendLine(const Table& t, RowId r) {
  std::string line = "append " + t.name();
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const dbwipes::Column& col = t.column(c);
    line += ' ';
    if (col.IsNull(r)) {
      line += "null";
    } else if (col.type() == dbwipes::DataType::kInt64) {
      line += std::to_string(col.GetInt64(r));
    } else if (col.type() == dbwipes::DataType::kDouble) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", col.GetDouble(r));
      line += buf;
    } else {
      line += col.GetString(r);
    }
  }
  return line;
}

Result<Dataset> MakeDataset(const Options& opt) {
  Dataset d;
  if (opt.workload == "intel_explain") {
    // Figure 4 at the paper's scale: 7 days at 5-minute readings, motes
    // 15 and 18 die on days 3 and 4. Short mode: 3 days at 20 minutes.
    const int64_t days = opt.small ? 3 : 7;
    DBW_ASSIGN_OR_RETURN(
        dbwipes::LabeledDataset data,
        dbwipes::GenerateIntelDataset(
            IntelTrace(opt.seed, days, opt.small ? 20.0 : 5.0,
                       (days / 2) * 1440, (days / 2 + 1) * 1440)));
    d.initial = data.table;
    d.truth.table = data.table;
    d.truth.rows = data.AllAnomalousRows();
    d.truth.f1_floor = opt.small ? 0.95 : 0.975;
  } else if (opt.workload == "fec_analysts") {
    dbwipes::FecOptions gen;
    gen.seed = opt.seed;
    gen.num_donations = opt.small ? 20000 : 200000;
    gen.num_reattributions = opt.small ? 150 : 1200;
    DBW_ASSIGN_OR_RETURN(dbwipes::LabeledDataset data,
                         dbwipes::GenerateFecDataset(gen));
    d.initial = data.table;
    d.truth.table = data.table;
    d.truth.rows = data.AllAnomalousRows();
    d.truth.f1_floor = 0.99;
    d.truth.top1_must_contain = "memo = 'REATTRIBUTION TO SPOUSE'";
  } else if (opt.workload == "intel_stream") {
    // The loaded prefix is 4 days at 10-minute readings (~30k rows); 6
    // more days (~46k rows) wait to be appended, more than a run
    // consumes. The faults start inside the prefix so the first gesture
    // already has something to find.
    const int64_t load_days = opt.small ? 2 : 4;
    const double interval = opt.small ? 20.0 : 10.0;
    DBW_ASSIGN_OR_RETURN(
        dbwipes::LabeledDataset data,
        dbwipes::GenerateIntelDataset(IntelTrace(
            opt.seed, load_days + (opt.small ? 3 : 6), interval,
            load_days * 1440 / 2, load_days * 1440 * 3 / 4)));
    const Table& full = *data.table;
    DBW_ASSIGN_OR_RETURN(const dbwipes::Column* minute,
                         full.GetColumn("minute"));
    RowId loaded = 0;
    while (loaded < full.num_rows() &&
           minute->GetInt64(loaded) < load_days * 1440) {
      ++loaded;
    }
    std::vector<RowId> prefix(loaded);
    for (RowId r = 0; r < loaded; ++r) prefix[r] = r;
    d.initial = std::make_shared<Table>(full.Select(prefix));
    for (RowId r = loaded; r < full.num_rows(); ++r) {
      d.appends.push_back(AppendLine(full, r));
    }
    d.truth.table = data.table;
    d.truth.rows = data.AllAnomalousRows();
    d.truth.f1_floor = opt.small ? 0.93 : 0.95;
  } else {
    return dbwipes::Status::InvalidArgument("unknown workload '" +
                                            opt.workload + "'");
  }
  if (opt.corrupt_truth) {
    // A deliberately wrong expectation: the labels move to the rows
    // right after each true anomaly, and FEC expects another memo.
    for (RowId& r : d.truth.rows) r = (r + 1) % d.truth.table->num_rows();
    std::sort(d.truth.rows.begin(), d.truth.rows.end());
    if (!d.truth.top1_must_contain.empty()) {
      d.truth.top1_must_contain = "memo = 'REFUND ISSUED'";
    }
  }
  return d;
}

// ---------------------------------------------------------------------------
// Workload runs
// ---------------------------------------------------------------------------

const Gesture& GestureOf(const std::string& workload) {
  return workload == "fec_analysts" ? kFecGesture : kIntelGesture;
}

const WorkloadDef& DefOf(const std::string& workload) {
  for (const WorkloadDef& w : kWorkloads) {
    if (workload == w.name) return w;
  }
  std::abort();  // ParseArgs admits only known workloads
}

struct Run {
  Samples samples;       // the measured loop
  Samples setup_checks;  // set-up gestures: counts and checks only
  std::vector<double> setup_s;
  double loop_s = 0.0;
  std::vector<std::unique_ptr<TraceData>> traces;
};

/// Reads the WAL counters the service already keeps: fsyncs from
/// `wal status`, logged bytes from the `stats` counter wal.bytes.
std::pair<double, double> WalCounters(Client& c) {
  const Json status = c.Send("wal status");
  const Json stats = c.Send("stats");
  return {status["fsyncs"].Num(), stats["stats"]["counters"]["wal.bytes"].Num()};
}

/// Set-up, timed from constructing the Service on the generated
/// Database through the first completed gesture. Repeated `reps` times
/// (each on a fresh Service and WAL directory); the last Service is
/// kept for the measured loop.
std::unique_ptr<Service> SetUp(const Options& opt, const Dataset& data,
                               size_t reps, Run* run,
                               std::vector<std::string>* wal_dirs) {
  const bool stream = opt.workload == "intel_stream";
  std::unique_ptr<Service> svc;
  for (size_t rep = 0; rep < reps; ++rep) {
    svc.reset();
    auto db = std::make_shared<Database>();
    db->RegisterTable(data.initial);
    const std::string wal_dir = opt.work_dir + "/wal-" +
                                std::to_string(::getpid()) + "-" +
                                std::to_string(rep);
    std::filesystem::remove_all(wal_dir);
    if (stream) wal_dirs->push_back(wal_dir);

    const Clock::time_point t0 = Clock::now();
    svc = std::make_unique<Service>(db, ServiceOptions{});
    // Set-up gestures are checked and counted, but their latencies are
    // not samples of the measured loop.
    Samples samples;
    Analyst a{Client(*svc, "a0", &samples), GestureOf(opt.workload),
              QualityChecker(data.truth), &samples, nullptr, *svc, 0};
    if (stream) {
      a.client.Send("shards " + data.initial->name() + " 4");
      a.client.Send("wal on " + wal_dir);
    }
    GestureCycle(a, data.truth, data.initial->num_rows(), /*clean=*/false);
    run->setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    run->setup_checks.MergeChecks(samples);
  }
  return svc;
}

/// One analyst thread: repeats the gesture (then `clean 0` / `undo`)
/// until the deadline.
void AnalystLoop(Service& svc, const std::string& session,
                 const Dataset& data, const WorkloadDef& def,
                 Clock::time_point deadline, Samples* samples,
                 TraceData* trace) {
  Analyst a{Client(svc, session, samples), GestureOf(def.name),
            QualityChecker(data.truth), samples, trace, svc, 0};
  const std::string refresh = std::string("sql ") + a.gesture.sql;
  while (Clock::now() < deadline) {
    for (size_t i = 0; i < def.refreshes; ++i) {
      double ms = 0;
      if (IsOk(a.client.Run(refresh, &ms))) samples->query_ms.push_back(ms);
    }
    GestureCycle(a, data.truth, data.initial->num_rows(), /*clean=*/true);
  }
}

// intel_stream sizing: a `sql` refresh after every kRowsPerBatch
// appends, and a full gesture every kBatchesPerGesture batches. A WAL
// append with its fsync takes well under a millisecond on an ext4 disk,
// so the batches are small, which makes appends and refreshes about half
// of the wall time. Debug time grows with the table, so the 1,000 rows
// between gestures are kept small against the 30k loaded: how far a run
// gets then moves the median debug little.
constexpr size_t kRowsPerBatch = 5;
constexpr size_t kBatchesPerGesture = 200;

void StreamLoop(Service& svc, const Dataset& data, Clock::time_point deadline,
                Samples* samples, TraceData* trace) {
  Analyst a{Client(svc, "a0", samples), kIntelGesture,
            QualityChecker(data.truth), samples, trace, svc, 0};
  Client& c = a.client;
  const std::string refresh = std::string("sql ") + kIntelGesture.sql;
  size_t cursor = 0;  // next entry of data.appends
  size_t batches = 0;
  while (Clock::now() < deadline && cursor < data.appends.size()) {
    // The traced run reads the WAL counters around one batch in ten.
    const bool probe = trace != nullptr && batches % 10 == 0;
    std::pair<double, double> before{0, 0};
    if (probe) before = WalCounters(c);
    const size_t batch_start = cursor;
    const size_t end = std::min(cursor + kRowsPerBatch, data.appends.size());
    for (; cursor < end; ++cursor) {
      double ms = 0;
      if (IsOk(c.Send(data.appends[cursor], &ms))) {
        samples->append_ms.push_back(ms);
      }
    }
    if (probe) {
      const std::pair<double, double> after = WalCounters(c);
      trace->wal.rows += static_cast<double>(end - batch_start);
      trace->wal.fsyncs += after.first - before.first;
      trace->wal.bytes += after.second - before.second;
    }
    double ms = 0;
    if (IsOk(c.Run(refresh, &ms))) samples->query_ms.push_back(ms);
    if (++batches % kBatchesPerGesture == 0) {
      // The traced run makes an untraced and a traced gesture on the
      // same rows, so the overhead estimate is not skewed by growth.
      for (int i = 0; i < (trace != nullptr ? 2 : 1); ++i) {
        GestureCycle(a, data.truth, data.initial->num_rows() + cursor,
                     /*clean=*/true);
      }
    }
  }
  std::printf("appended rows: %zu in %zu batches%s\n", cursor, batches,
              cursor == data.appends.size() ? " (the whole trace)" : "");
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, const Samples& s,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(s.attempted);
  out += ", \"failed\": " + std::to_string(s.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> EndToEndMetrics(const Run& run) {
  const Samples& s = run.samples;
  for (const auto& [name, xs] :
       {std::pair{"debug_ms", &s.debug_ms}, {"query_ms", &s.query_ms},
        {"clean_ms", &s.clean_ms}}) {
    std::printf("%s samples:", name);
    for (size_t i = 0; i < xs->size() && i < 40; ++i) {
      std::printf(" %.1f", (*xs)[i]);
    }
    std::printf("%s\n", xs->size() > 40 ? " ..." : "");
  }
  std::printf("debug_ms p50 %.4f, gesture_ms p50 %.4f (the gated figures are "
              "the p25)\n",
              Median(s.debug_ms), Median(s.gesture_ms));
  std::printf("query_ms p50 %.4f, clean_ms p50 %.4f (reported by the traced "
              "run)\n",
              Median(s.query_ms), Median(s.clean_ms));
  const Tail debug_tail = TailOf(s.debug_ms);
  std::printf("debug_ms.tail = p%.1f of %zu samples\n", debug_tail.percentile,
              debug_tail.samples);
  const double failed_frac =
      Ratio(static_cast<double>(s.failed), static_cast<double>(s.attempted));
  std::printf("failed_frac = %zu / %zu = %.6f\n", s.failed, s.attempted,
              failed_frac);
  return {
      {"debug_ms.p25", Percentile(s.debug_ms, 25.0), "ms"},
      {"debug_ms.tail", debug_tail.value, "ms"},
      {"gesture_ms.p25", Percentile(s.gesture_ms, 25.0), "ms"},
      {"debug_per_s", Ratio(static_cast<double>(s.debugs), run.loop_s), "1/s"},
      {"top1_f1", s.f1_checks > 0 ? s.min_f1 : 0.0, "ratio"},
      {"setup_s", Median(run.setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// Per-span self times per gesture: a span's duration minus the part
/// its children cover.
std::map<std::string, std::vector<double>> SelfTimes(
    const std::vector<std::unique_ptr<TraceData>>& traces,
    std::map<uint64_t, double>* explain_ms_by_gesture) {
  std::map<std::string, std::map<uint64_t, double>> per_gesture;
  int thread = 0;
  for (const auto& tr : traces) {
    const std::vector<Span>& spans = tr->rec.spans();
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      self[i] = MsBetween(spans[i].start, spans[i].end);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0) {
        self[static_cast<size_t>(spans[i].parent)] -=
            MsBetween(spans[i].start, spans[i].end);
      }
    }
    const uint64_t key_base = static_cast<uint64_t>(thread) << 40;
    for (size_t i = 0; i < spans.size(); ++i) {
      const uint64_t key = key_base | spans[i].gesture;
      per_gesture[spans[i].name][key] += self[i];
      if (spans[i].name == "core.explain") {
        (*explain_ms_by_gesture)[key] = MsBetween(spans[i].start, spans[i].end);
      }
    }
    ++thread;
  }
  std::map<std::string, std::vector<double>> out;
  for (const auto& [name, by_gesture] : per_gesture) {
    for (const auto& entry : by_gesture) out[name].push_back(entry.second);
  }
  return out;
}

void WriteSpans(const std::string& path,
                const std::vector<std::unique_ptr<TraceData>>& traces) {
  std::ofstream f(path);
  if (!f) return;
  Clock::time_point origin = Clock::time_point::max();
  for (const auto& tr : traces) {
    for (const Span& s : tr->rec.spans()) origin = std::min(origin, s.start);
  }
  f << "[";
  bool first = true;
  int tid = 0;
  for (const auto& tr : traces) {
    const std::vector<Span>& spans = tr->rec.spans();
    for (const Span& s : spans) {
      f << (first ? "\n" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
        << ", \"ts\": " << FormatNumber(MsBetween(origin, s.start) * 1000.0)
        << ", \"dur\": " << FormatNumber(MsBetween(s.start, s.end) * 1000.0)
        << ", \"args\": {\"gesture\": " << s.gesture << ", \"parent\": \""
        << (s.parent < 0 ? "" : spans[static_cast<size_t>(s.parent)].name)
        << "\"}}";
      first = false;
    }
    ++tid;
  }
  f << "\n]\n";
}

std::vector<Metric> PerLayerMetrics(const Options& opt, const Run& run) {
  std::map<uint64_t, double> explain_ms;
  std::map<std::string, std::vector<double>> self =
      SelfTimes(run.traces, &explain_ms);
  auto self_p50 = [&](const char* name) { return Median(self[name]); };

  std::vector<double> traced_ms, untraced_ms;
  WalTally wal;
  for (const auto& tr : run.traces) {
    traced_ms.insert(traced_ms.end(), tr->traced_debug_ms.begin(),
                     tr->traced_debug_ms.end());
    untraced_ms.insert(untraced_ms.end(), tr->untraced_debug_ms.begin(),
                       tr->untraced_debug_ms.end());
    wal.rows += tr->wal.rows;
    wal.fsyncs += tr->wal.fsyncs;
    wal.bytes += tr->wal.bytes;
  }

  // The residual is measured on the Service's own request: its `debug`
  // wall time minus the pipeline time the same request's profile
  // reports (stage_ms.total), i.e. dispatch, locks, the retry wrapper
  // and response assembly.
  std::vector<double> residual, residual_share, service_ms, staged_ms;
  std::map<std::string, std::vector<double>> profile;
  int thread = 0;
  for (const auto& tr : run.traces) {
    for (const TracedGesture& g : tr->gestures) {
      const uint64_t key = (static_cast<uint64_t>(thread) << 40) | g.id;
      staged_ms.push_back(explain_ms.count(key) ? explain_ms[key] : 0.0);
      const double pipeline = g.profile.at("pipeline_ms");
      residual.push_back(g.service_debug_ms - pipeline);
      residual_share.push_back(Ratio(residual.back(), g.service_debug_ms));
      service_ms.push_back(g.service_debug_ms);
      for (const auto& [name, value] : g.profile) {
        profile[name].push_back(value);
      }
    }
    ++thread;
  }
  auto p50 = [&](const char* name) { return Median(profile[name]); };

  // The per-layer table. Means over traced gestures: the stage self
  // times add up exactly to the staged explain's wall time, and the
  // Service's debug wall time is its pipeline time plus the residual.
  // The staged explain and the Service's pipeline are two executions
  // of the same request, so they differ by run-to-run noise only.
  const double mean_staged = Mean(staged_ms);
  std::printf("\ntraced gestures: %zu (untraced, for the overhead: %zu)\n",
              service_ms.size(), untraced_ms.size());
  std::printf("%-28s %12s %12s %8s\n", "span", "p50 self ms", "mean self ms",
              "share");
  auto row = [&](const std::string& name, const std::vector<double>& xs) {
    const double mean = Mean(xs);
    std::printf("%-28s %12.3f %12.3f %7.2f%%\n", name.c_str(), Median(xs),
                mean, 100.0 * Ratio(mean, mean_staged));
  };
  std::vector<std::string> stage_names(std::begin(kStageSpans),
                                       std::end(kStageSpans));
  stage_names.push_back("core.explain");
  double stage_sum = 0.0;
  for (const std::string& name : stage_names) {
    stage_sum += Mean(self[name]);
    row(name == "core.explain" ? "core.explain (self)" : name, self[name]);
  }
  std::printf("%-28s %12s %12.3f  (staged explain wall %.3f)\n",
              "= sum of self times", "", stage_sum, mean_staged);
  std::printf("%-28s %12.3f %12.3f\n", "service pipeline (profile)",
              p50("pipeline_ms"), Mean(profile["pipeline_ms"]));
  std::printf("%-28s %12.3f %12.3f\n", "+ core.service_residual",
              Median(residual), Mean(residual));
  std::printf("%-28s %12.3f %12.3f\n", "= service debug wall",
              Median(service_ms), Mean(service_ms));
  for (const char* name : {"query.execute", "query.clean_execute"}) {
    std::printf("%-28s %12.3f %12.3f\n", name, Median(self[name]),
                Mean(self[name]));
  }
  const double share = Median(residual_share);
  if (share > 0.05) {
    std::printf("FLAG: core.service_residual is %.1f%% of debug (> 5%%)\n",
                100.0 * share);
  }

  const double tree_fits =
      p50("candidate_datasets") *
      static_cast<double>(ExplainOptions().predicates.strategies.size());
  const double overhead = traced_ms.empty() || untraced_ms.empty()
                              ? 0.0
                              : Median(traced_ms) - Median(untraced_ms);
  std::printf("tracing overhead: traced p50 %.3f ms - untraced p50 %.3f ms\n",
              Median(traced_ms), Median(untraced_ms));
  if (opt.workload == "intel_stream") {
    std::printf("wal: %.0f rows appended in traced batches, %.0f fsyncs, "
                "%.0f bytes\n",
                wal.rows, wal.fsyncs, wal.bytes);
  }

  Tail append_tail = TailOf(run.samples.append_ms);
  return {
      {"query.execute_ms", self_p50("query.execute"), "ms"},
      {"query.clean_execute_ms", self_p50("query.clean_execute"), "ms"},
      {"learn.feature_view_ms", self_p50("learn.feature_view"), "ms"},
      {"provenance.preprocess_ms", self_p50("provenance.preprocess"), "ms"},
      {"core.clean_dprime_ms", self_p50("core.clean_dprime"), "ms"},
      {"core.dataset_enumerate_ms", self_p50("core.dataset_enumerate"), "ms"},
      {"core.predicate_enumerate_ms", self_p50("core.predicate_enumerate"),
       "ms"},
      {"core.rank_ms", self_p50("core.rank"), "ms"},
      {"core.merge_ms", self_p50("core.merge"), "ms"},
      {"core.export_ms", self_p50("core.export"), "ms"},
      {"core.explain_self_ms", self_p50("core.explain"), "ms"},
      {"core.service_debug_ms", Median(service_ms), "ms"},
      {"core.service_residual_ms", Median(residual), "ms"},
      {"core.service_residual_share", share, "ratio"},
      {"core.candidate_datasets", p50("candidate_datasets"), "count"},
      {"core.predicates_enumerated", p50("predicates_enumerated"), "count"},
      {"core.predicates_scored", p50("predicates_scored"), "count"},
      {"learn.tree_fits", tree_fits, "count"},
      {"core.scored_per_enumerated",
       Ratio(p50("predicates_scored"), p50("predicates_enumerated")), "ratio"},
      {"expr.clause_lookups", p50("clause_lookups"), "count"},
      {"expr.clause_hit_ratio", Ratio(p50("cache_hits"), p50("clause_lookups")),
       "ratio"},
      {"expr.fused_lookups", p50("fused_lookups"), "count"},
      {"expr.fused_hit_ratio", Ratio(p50("fused_hits"), p50("fused_lookups")),
       "ratio"},
      {"expr.shard_engines_reused", p50("shard_engines_reused"), "count"},
      {"common.pool_utilization", p50("pool_utilization"), "ratio"},
      {"query_ms.p50", Median(run.samples.query_ms), "ms"},
      {"clean_ms.p50", Median(run.samples.clean_ms), "ms"},
      {"append_ms.p50", Median(run.samples.append_ms), "ms"},
      {"append_ms.tail", append_tail.value, "ms"},
      {"failed_frac",
       Ratio(static_cast<double>(run.samples.failed),
             static_cast<double>(run.samples.attempted)),
       "ratio"},
      {"storage.wal_fsyncs_per_append", Ratio(wal.fsyncs, wal.rows), "ratio"},
      {"storage.wal_bytes_per_row", Ratio(wal.bytes, wal.rows), "B"},
      {"trace.overhead_ms", overhead, "ms"},
  };
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--short") {
      opt->small = true;
    } else if (arg == "--corrupt-truth") {
      opt->corrupt_truth = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
               arg == "--trace" || arg == "--work-dir") {
      const char* v = value();
      if (v == nullptr) return false;
      char* end = nullptr;
      if (arg == "--workload") {
        opt->workload = v;
      } else if (arg == "--work-dir") {
        opt->work_dir = v;
      } else if (arg == "--seed") {
        opt->seed = std::strtoull(v, &end, 10);
        if (*end != '\0') return false;
      } else if (arg == "--seconds") {
        opt->seconds = std::strtod(v, &end);
        if (*end != '\0' || !(opt->seconds > 0.0)) return false;
      } else {
        opt->trace = std::strcmp(v, "1") == 0;
        if (!opt->trace && std::strcmp(v, "0") != 0) return false;
      }
    } else {
      return false;
    }
  }
  for (const WorkloadDef& w : kWorkloads) {
    if (opt->workload == w.name) return true;
  }
  return false;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload intel_explain|fec_analysts|"
                 "intel_stream --seed N --seconds S --trace 0|1 [--short] "
                 "[--work-dir DIR] [--corrupt-truth]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);

  for (const WorkloadDef& w : kWorkloads) {
    if (opt.workload == w.name) {
      std::printf("workload %s: %s\n", w.name, w.why);
    }
  }
  std::printf("seed %llu (validation seed for later claims: %llu)%s%s\n",
              static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(kValidationSeed),
              opt.small ? ", short mode" : "", opt.trace ? ", traced" : "");

  Result<Dataset> data = MakeDataset(opt);
  if (!data.ok()) {
    std::fprintf(stderr, "data generation failed: %s\n",
                 data.status().ToString().c_str());
    return 2;
  }
  std::printf("rows: %zu loaded", data->initial->num_rows());
  if (!data->appends.empty()) {
    std::printf(", %zu more to append", data->appends.size());
  }
  std::printf("; %zu labelled anomalous\n", data->truth.rows.size());

  const bool stream = opt.workload == "intel_stream";
  if (opt.workload == "fec_analysts") {
    // A known defect, left for a later change: `append` splits values
    // on whitespace, so FEC rows (memos hold spaces) cannot be streamed.
    std::printf("note: FEC rows cannot be appended today (append splits on "
                "whitespace; memos contain spaces); intel_stream streams "
                "Intel rows instead\n");
  }
  if (stream) {
    std::printf(
        "flush policy: WAL on, group-commit fsync before every acknowledged "
        "append (sync=true); fsync latency is the filesystem under the "
        "work dir, not a raw device\n");
  }

  const size_t reps =
      opt.trace ? 1 : opt.small ? 2 : DefOf(opt.workload).setup_reps;
  Run run;
  std::vector<std::string> wal_dirs;
  std::unique_ptr<Service> svc = SetUp(opt, *data, reps, &run, &wal_dirs);

  const size_t clients =
      opt.workload == "fec_analysts"
          ? (opt.small ? std::min<size_t>(2, AvailableCpus()) : AvailableCpus())
          : 1;
  std::vector<Samples> per_client(clients);
  for (size_t i = 0; i < clients; ++i) {
    run.traces.push_back(opt.trace ? std::make_unique<TraceData>() : nullptr);
  }

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.seconds));
  if (stream) {
    StreamLoop(*svc, *data, deadline, &per_client[0], run.traces[0].get());
  } else {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < clients; ++i) {
      threads.emplace_back(AnalystLoop, std::ref(*svc),
                           "a" + std::to_string(i), std::cref(*data),
                           std::cref(DefOf(opt.workload)), deadline,
                           &per_client[i], run.traces[i].get());
    }
    for (std::thread& t : threads) t.join();
  }
  run.loop_s = MsBetween(start, Clock::now()) / 1000.0;
  for (const Samples& s : per_client) run.samples.Merge(s);
  run.samples.MergeChecks(run.setup_checks);

  if (stream) {
    Client c(*svc, "a0", &run.samples);
    const Json status = c.Send("wal status");
    std::printf("wal status: appends %.0f, fsyncs %.0f, checkpoints %.0f, "
                "segments %.0f\n",
                status["appends"].Num(), status["fsyncs"].Num(),
                status["checkpoints"].Num(), status["segments"].Num());
    const Tail t = TailOf(run.samples.append_ms);
    std::printf("append_ms: p50 %.4f, p%.1f %.4f over %zu samples\n",
                Median(run.samples.append_ms), t.percentile, t.value,
                t.samples);
  }
  svc.reset();
  for (const std::string& dir : wal_dirs) std::filesystem::remove_all(dir, ec);

  std::printf("clients %zu, loop %.3f s, debugs %zu, commands %zu, "
              "setups %zu\n",
              clients, run.loop_s, run.samples.debugs, run.samples.attempted,
              run.setup_s.size());

  std::vector<Metric> metrics;
  if (opt.trace) {
    run.traces.erase(std::remove(run.traces.begin(), run.traces.end(), nullptr),
                     run.traces.end());
    metrics = PerLayerMetrics(opt, run);
    const std::string spans_path = opt.work_dir + "/spans-" + opt.workload +
                                   "-seed" + std::to_string(opt.seed) + ".json";
    WriteSpans(spans_path, run.traces);
    std::printf("spans written to %s\n", spans_path.c_str());
  } else {
    metrics = EndToEndMetrics(run);
  }

  Samples& s = run.samples;
  if (s.debugs == 0) s.Problem("no debug completed");
  if (s.f1_checks == 0) s.Problem("no top-1 predicate was checked");
  for (const std::string& f : s.failures) {
    std::printf("FAILED COMMAND: %s\n", f.c_str());
  }
  for (const std::string& p : s.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("top1_f1 min %.6f over %zu checks (floor %.3f)\n",
              s.f1_checks > 0 ? s.min_f1 : 0.0, s.f1_checks,
              data->truth.f1_floor);
  const bool correct = s.problems.empty();
  std::fflush(stdout);
  PrintResult(correct, s, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
