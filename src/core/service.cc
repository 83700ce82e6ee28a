#include "dbwipes/core/service.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <thread>
#include <utility>

#include "dbwipes/common/metrics.h"
#include "dbwipes/common/string_util.h"
#include "dbwipes/common/trace.h"
#include "dbwipes/core/export.h"
#include "dbwipes/core/snapshot.h"
#include "dbwipes/expr/parser.h"
#include "dbwipes/expr/shard_cache.h"
#include "dbwipes/replication/replication.h"
#include "dbwipes/storage/shard.h"

namespace dbwipes {

namespace {

std::string Quote(const std::string& text) {
  return "\"" + JsonEscape(text) + "\"";
}

/// `[render(a), render(b), ...]`.
template <typename Items, typename Render>
std::string JsonArray(const Items& items, Render render) {
  std::string out = "[";
  for (const auto& item : items) {
    if (out.size() > 1) out += ", ";
    out += render(item);
  }
  return out + "]";
}

std::string Count(size_t n) { return std::to_string(n); }

}  // namespace

struct Service::Response {
  bool ok = true;
  bool partial = false;
  std::string error;
  bool retryable = false;
  std::string reason;
  double retry_after_ms = -1.0;  // < 0: absent
  std::string durability;
  bool applied = false;
  /// `"key": value` members, serialized after the fields above.
  std::string payload;
  /// A debug run's stage breakdown and cache hits for the slow log;
  /// never serialized.
  std::string debug_stages;
  uint64_t debug_cache_hits = 0;

  Response& Add(const std::string& key, const std::string& json) {
    if (!payload.empty()) payload += ", ";
    payload += "\"" + key + "\": " + json;
    return *this;
  }

  /// The wire form, built once at the edge. The field order is the
  /// contract every client parses: ok, rid, partial, error, retryable,
  /// reason, retry_after_ms, durability, applied, then the payload.
  std::string Serialize(uint64_t rid) const {
    std::string out = ok ? "{\"ok\": true" : "{\"ok\": false";
    if (rid != 0) out += ", \"rid\": " + std::to_string(rid);
    if (partial) out += ", \"partial\": true";
    if (!ok) out += ", \"error\": " + Quote(error);
    if (retryable) out += ", \"retryable\": true";
    if (!reason.empty()) out += ", \"reason\": " + Quote(reason);
    if (retry_after_ms >= 0.0) {
      out += ", \"retry_after_ms\": " + FormatDouble(retry_after_ms);
    }
    if (!durability.empty()) out += ", \"durability\": " + Quote(durability);
    if (applied) out += ", \"applied\": true";
    if (!payload.empty()) out += ", " + payload;
    return out + "}";
  }
};

struct Service::Call {
  std::istream& in;            // positioned after the command word
  const std::string& session;  // the routed session's name
  ManagedSession* ms;          // session-scope commands only
};

namespace {

using Response = Service::Response;
using Call = Service::Call;

/// An ok response with these `"key": json` payload members.
Response OkWith(
    std::initializer_list<std::pair<std::string, std::string>> members) {
  Response r;
  for (const auto& [key, json] : members) r.Add(key, json);
  return r;
}

Response OkWith(const std::string& key, const std::string& json) {
  return OkWith({{key, json}});
}

Response Error(const std::string& message) {
  Response r;
  r.ok = false;
  r.error = message;
  return r;
}

Response Error(const Status& status) {
  Response r = Error(status.ToString());
  r.retryable = IsTransient(status);
  return r;
}

/// Reads the next token without consuming it (the subcommand word that
/// selects a table variant before the handler parses it).
std::string PeekToken(std::istream& in) {
  const std::streampos pos = in.tellg();
  std::string token;
  in >> token;
  in.clear();
  in.seekg(pos);
  return token;
}

/// The rest of the line, trimmed (free-text arguments: SQL, filters).
std::string RestOfLine(std::istream& in) {
  std::string tail;
  std::getline(in, tail);
  return std::string(Trim(tail));
}

const Service::Command* FindCommand(const std::string& name) {
  for (const Service::Command& command : Service::Commands()) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

/// The command name a human would grep for: the table's name for the
/// command (and its subcommand, when it has named ones), after the
/// `@session` route when there is one.
std::string CommandLabel(const std::string& line) {
  std::istringstream in(line);
  std::string label;
  in >> label;
  std::string cmd = label;
  if (!label.empty() && label[0] == '@' && in >> cmd) label += " " + cmd;
  if (const Service::Command* command = FindCommand(cmd)) {
    if (const char* sub = command->Select(PeekToken(in)).sub) {
      label += std::string(" ") + sub;
    }
  }
  return label;
}

ServiceOptions WithExplain(ExplainOptions explain) {
  ServiceOptions options;
  options.explain = std::move(explain);
  return options;
}

/// Rebuilds a fresh session's state from its replay record. Anything
/// that no longer applies cleanly (e.g. a metric whose agg_index fell
/// out of range) is skipped rather than failing the whole restore;
/// structural failures (missing table, bad predicate) abort.
Status ReplaySessionState(ManagedSession& ms, const SessionReplay& replay) {
  ms.replay = replay;
  if (replay.original_sql.empty()) return Status::OK();

  Session& s = ms.session;
  DBW_RETURN_NOT_OK(s.ExecuteSql(replay.original_sql));
  for (const Predicate& pred : replay.applied_predicates) {
    DBW_RETURN_NOT_OK(s.ApplyPredicateDirect(pred));
  }
  if (!replay.selected_groups.empty()) {
    DBW_RETURN_NOT_OK(s.SelectResults(replay.selected_groups));
    if (!replay.selected_inputs.empty()) {
      DBW_RETURN_NOT_OK(s.SelectInputs(replay.selected_inputs));
    }
  }
  if (replay.has_metric) {
    auto metric = MetricFromKind(replay.metric_kind, replay.metric_expected);
    if (!metric.ok()) return metric.status();
    Status st = s.SetMetric(*metric, replay.agg_index);
    // A stale agg_index (the snapshot outlived a query change) makes
    // the metric meaningless but the session itself is fine — restore
    // it metric-less instead of refusing the whole snapshot.
    if (!st.ok()) ms.replay.has_metric = false;
  }
  return Status::OK();
}

/// The response of a session mutation: its error, or — once the new
/// selection/cleaning state is mirrored into the replay record, so a
/// snapshot taken at any point restores to exactly here — `ok(session)`.
template <typename Render>
Response Mutated(ManagedSession& ms, const Status& st, Render ok) {
  if (!st.ok()) return Error(st);
  ms.replay.applied_predicates = ms.session.applied_predicates();
  ms.replay.selected_groups = ms.session.selected_groups();
  ms.replay.selected_inputs = ms.session.selected_inputs();
  return ok(ms.session);
}

Response NumSelected(const Session& s) {
  return OkWith("num_selected", Count(s.selected_groups().size()));
}

Response CleanedSql(const Session& s) {
  return OkWith("sql", Quote(s.CurrentSql()));
}

Response StateOf(const Session& s) {
  Response r;
  r.Add("has_result", s.has_result() ? "true" : "false");
  if (s.has_result()) {
    r.Add("sql", Quote(s.CurrentSql()));
    r.Add("num_groups", Count(s.result().num_groups()));
  }
  r.Add("num_selected_groups", Count(s.selected_groups().size()));
  r.Add("num_selected_inputs", Count(s.selected_inputs().size()));
  r.Add("num_applied_predicates", Count(s.applied_predicates().size()));
  r.Add("has_explanation", s.has_explanation() ? "true" : "false");
  return r;
}

Response Metrics(Session& s, std::istream& in) {
  size_t agg_index = 0;
  in >> agg_index;
  auto suggestions = s.SuggestErrorMetrics(agg_index);
  if (!suggestions.ok()) return Error(suggestions.status());
  return OkWith("metrics", JsonArray(*suggestions, [](const auto& m) {
                  return "{\"label\": " + Quote(m.label) +
                         ", \"default_expected\": " +
                         FormatDouble(m.default_expected, 17) + "}";
                }));
}

Response SetMetric(ManagedSession& ms, std::istream& in) {
  std::string kind;
  double expected = 0.0;
  if (!(in >> kind >> expected)) {
    return Error("usage: metric <kind> <expected> [agg_index]");
  }
  size_t agg_index = 0;
  in >> agg_index;
  auto metric = MetricFromKind(kind, expected);
  if (!metric.ok()) return Error(metric.status());
  Status st = ms.session.SetMetric(*metric, agg_index);
  if (!st.ok()) return Error(st);
  ms.replay.has_metric = true;
  ms.replay.metric_kind = kind;
  ms.replay.metric_expected = expected;
  ms.replay.agg_index = agg_index;
  return Response();
}

Response Trace(std::istream& in) {
  std::string sub;
  if (!(in >> sub)) return Error("usage: trace on|off|<path>");
  if (sub == "on" || sub == "off") {
    Tracer::Global().SetEnabled(sub == "on");
    return OkWith("trace", sub == "on" ? "true" : "false");
  }
  // Anything else is a dump path.
  Status st = Tracer::Global().WriteJson(sub);
  if (!st.ok()) return Error(st);
  return OkWith("trace_events", Count(Tracer::Global().num_events()));
}

Response Cancel(ManagedSession& ms) {
  // Runs with no lock class: the whole point is to reach a debug that
  // holds the session mutex (and to land while a checkpoint drains).
  std::lock_guard<std::mutex> lock(ms.cancel_mu);
  if (ms.active_cancel != nullptr) {
    ms.active_cancel->Cancel("cancelled by client");
    return OkWith("cancelled", "\"in-flight\"");
  }
  ms.pending_cancel = true;
  return OkWith("cancelled", "\"pending\"");
}

}  // namespace

const Service::Command::Variant& Service::Command::Select(
    const std::string& sub) const {
  static const Variant kUnknownSub{nullptr, CommandKind::kRead,
                                   CommandLock::kNone};
  for (const Variant& v : variants) {
    if (v.sub == nullptr || sub == v.sub) return v;
  }
  return kUnknownSub;
}

// The command table. Each row names a command, its scope, and per
// subcommand what it does (CommandKind) and which locks dispatch holds
// around it (CommandLock); ExecuteCommand derives role refusal, WAL
// logging and locking from the row, and CommandLabel its name.
const std::vector<Service::Command>& Service::Commands() {
  using K = CommandKind;
  using L = CommandLock;
  constexpr bool kProcessScope = false;
  constexpr bool kSessionScope = true;
  static const std::vector<Command> table = {
      // --- Replication role: followers are managed through these ---
      {"replicate", kProcessScope, {{nullptr, K::kRead, L::kNone}},
       [](Service& s, Call& c) { return s.HandleReplicate(c.in); }},
      {"promote", kProcessScope, {{nullptr, K::kRead, L::kNone}},
       [](Service& s, Call&) { return s.HandlePromote(); }},
      {"replication", kProcessScope, {{nullptr, K::kRead, L::kNone}},
       [](Service& s, Call& c) {
         if (PeekToken(c.in) == "status") return s.HandleReplicationStatus();
         return Error("usage: replication status");
       }},

      // --- Process-wide reads ---
      {"ping", kProcessScope, {{nullptr, K::kRead, L::kNone}},
       [](Service&, Call& c) {
         double ms = 0.0;
         if (c.in >> ms && ms > 0.0) {
           std::this_thread::sleep_for(
               std::chrono::duration<double, std::milli>(ms));
         }
         return OkWith("pong", "true");
       }},
      {"stats", kProcessScope, {{nullptr, K::kRead, L::kNone}},
       [](Service& s, Call&) { return s.HandleStats(); }},
      {"history", kProcessScope, {{nullptr, K::kRead, L::kNone}},
       [](Service& s, Call& c) { return s.HandleHistory(c.in); }},
      {"slowlog", kProcessScope, {{nullptr, K::kRead, L::kNone}},
       [](Service& s, Call&) { return s.HandleSlowlog(); }},
      {"trace", kProcessScope, {{nullptr, K::kRead, L::kNone}},
       [](Service&, Call& c) { return Trace(c.in); }},

      // --- Durability. Swapping or re-basing the world excludes every
      // logged mutation and checkpoint (exclusive gate); `snapshot
      // save` stays gate-free, its session locks and shard leases
      // already give a prefix-consistent capture. ---
      {"wal", kProcessScope,
       {{"on", K::kNodeConfig, L::kExclusiveGate,
         "configures this node's own durability, which its log cannot "
         "record; a follower's log holds exactly the primary's stream"},
        // No lock class: the handler takes repl_mu_ before the gate.
        {"off", K::kNodeConfig, L::kNone,
         "configures this node's own durability; a follower must keep "
         "logging the primary's stream"},
        {"checkpoint", K::kRead, L::kExclusiveGate},
        {"status", K::kRead, L::kNone}},
       [](Service& s, Call& c) { return s.HandleWal(c.in); }},
      {"snapshot", kProcessScope,
       {{"save", K::kRead, L::kNone},
        {"load", K::kNodeConfig, L::kExclusiveGate,
         "replaces the whole world from a file the log does not hold; "
         "the WAL checkpoints right after it instead, and a follower's "
         "world comes only from the primary"}},
       [](Service& s, Call& c) { return s.HandleSnapshot(c.in); }},

      // --- Process-wide mutations: the shared gate keeps a checkpoint
      // from seeing one half-applied, append_wal_mu_ keeps WAL order ==
      // apply order across clients ---
      {"retry", kProcessScope, {{nullptr, K::kLogged, L::kGateOrdered}},
       [](Service& s, Call& c) { return s.HandleRetry(c.in); }},
      {"session", kProcessScope,
       {{"list", K::kRead, L::kGateOrdered},
        {"drop", K::kLogged, L::kGateOrdered},
        {"evict", K::kRead, L::kGateOrdered}},
       [](Service& s, Call& c) { return s.HandleSession(c.in); }},
      {"shards", kProcessScope, {{nullptr, K::kLogged, L::kGateOrdered}},
       [](Service& s, Call& c) { return s.HandleShards(c.in); }},
      {"append", kProcessScope, {{nullptr, K::kLogged, L::kGateOrdered}},
       [](Service& s, Call& c) { return s.HandleAppend(c.in); }},

      // --- Session commands (the session mutex serializes each
      // session; logged ones also hold the shared gate) ---
      {"cancel", kSessionScope, {{nullptr, K::kRead, L::kNone}},
       [](Service&, Call& c) { return Cancel(*c.ms); }},
      {"sql", kSessionScope, {{nullptr, K::kLogged, L::kSession}},
       [](Service&, Call& c) {
         const std::string sql = RestOfLine(c.in);
         if (sql.empty()) return Error("usage: sql <query>");
         Status st = c.ms->session.ExecuteSql(sql);
         if (st.ok()) c.ms->replay.original_sql = sql;
         return Mutated(*c.ms, st, [](const Session& s) {
           return OkWith("num_groups", Count(s.result().num_groups()));
         });
       }},
      {"result", kSessionScope, {{nullptr, K::kRead, L::kSession}},
       [](Service&, Call& c) {
         const Session& s = c.ms->session;
         if (!s.has_result()) return Error("no query executed");
         return OkWith("result", QueryResultToJson(s.result(), false));
       }},
      {"select_range", kSessionScope, {{nullptr, K::kLogged, L::kSession}},
       [](Service&, Call& c) {
         std::string agg;
         double lo = 0.0, hi = 0.0;
         if (!(c.in >> agg >> lo >> hi)) {
           return Error("usage: select_range <agg> <lo> <hi>");
         }
         return Mutated(*c.ms, c.ms->session.SelectResultsInRange(agg, lo, hi),
                        NumSelected);
       }},
      {"select_groups", kSessionScope, {{nullptr, K::kLogged, L::kSession}},
       [](Service&, Call& c) {
         std::vector<size_t> groups;
         for (size_t g; c.in >> g;) groups.push_back(g);
         if (groups.empty()) return Error("usage: select_groups <i> [j ...]");
         return Mutated(*c.ms, c.ms->session.SelectResults(groups),
                        NumSelected);
       }},
      {"inputs_where", kSessionScope, {{nullptr, K::kLogged, L::kSession}},
       [](Service&, Call& c) {
         const std::string filter = RestOfLine(c.in);
         if (filter.empty()) return Error("usage: inputs_where <filter>");
         return Mutated(*c.ms, c.ms->session.SelectInputsWhere(filter),
                        [](const Session& s) {
                          return OkWith("num_inputs",
                                        Count(s.selected_inputs().size()));
                        });
       }},
      {"metrics", kSessionScope, {{nullptr, K::kRead, L::kSession}},
       [](Service&, Call& c) { return Metrics(c.ms->session, c.in); }},
      {"metric", kSessionScope, {{nullptr, K::kLogged, L::kSession}},
       [](Service&, Call& c) { return SetMetric(*c.ms, c.in); }},
      {"debug", kSessionScope, {{nullptr, K::kRead, L::kSession}},
       [](Service& s, Call& c) { return s.RunDebug(*c.ms); }},
      {"set_deadline", kSessionScope, {{nullptr, K::kLogged, L::kSession}},
       [](Service&, Call& c) {
         double ms = 0.0;
         if (!(c.in >> ms)) return Error("usage: set_deadline <ms>");
         c.ms->settings.deadline_ms = ms;
         return OkWith("deadline_ms",
                       ms <= 0.0 ? "null" : FormatDouble(ms, 17));
       }},
      {"profile", kSessionScope, {{nullptr, K::kLogged, L::kSession}},
       [](Service&, Call& c) {
         std::string sub;
         if (!(c.in >> sub)) return Error("usage: profile on|off");
         if (sub != "on" && sub != "off") {
           return Error("unknown profile subcommand '" + sub + "'");
         }
         c.ms->settings.profile_enabled = sub == "on";
         return OkWith("profile", sub == "on" ? "true" : "false");
       }},
      {"clean", kSessionScope, {{nullptr, K::kLogged, L::kSession}},
       [](Service&, Call& c) {
         size_t index = 0;
         if (!(c.in >> index)) return Error("usage: clean <i>");
         return Mutated(*c.ms, c.ms->session.ApplyPredicate(index),
                        CleanedSql);
       },
       // `clean <i>` names a rank in the last debug's explanation, which
       // recovery does not replay: log the RESOLVED predicate instead.
       [](const Call& c) {
         return "@" + c.session + " clean_where " +
                c.ms->session.applied_predicates().back().ToString();
       }},
      {"clean_where", kSessionScope, {{nullptr, K::kLogged, L::kSession}},
       [](Service&, Call& c) {
         const std::string text = RestOfLine(c.in);
         if (text.empty()) return Error("usage: clean_where <predicate>");
         auto pred = ParsePredicate(text);
         if (!pred.ok()) return Error(pred.status());
         return Mutated(*c.ms, c.ms->session.ApplyPredicateDirect(*pred),
                        CleanedSql);
       }},
      {"undo", kSessionScope, {{nullptr, K::kLogged, L::kSession}},
       [](Service&, Call& c) {
         return Mutated(*c.ms, c.ms->session.UndoLastPredicate(), CleanedSql);
       }},
      {"reset", kSessionScope, {{nullptr, K::kLogged, L::kSession}},
       [](Service&, Call& c) {
         return Mutated(*c.ms, c.ms->session.ResetCleaning(),
                        [](const Session&) { return Response(); });
       }},
      {"state", kSessionScope, {{nullptr, K::kRead, L::kSession}},
       [](Service&, Call& c) { return StateOf(c.ms->session); }},
  };
  return table;
}

Service::Service(std::shared_ptr<Database> db, ExplainOptions options)
    : Service(std::move(db), WithExplain(std::move(options))) {}

Service::Service(std::shared_ptr<Database> db, ServiceOptions options)
    : options_(std::move(options)),
      db_(std::move(db)),
      retry_max_attempts_(options_.retry.max_attempts),
      retry_backoff_ms_(options_.retry.initial_backoff_ms),
      history_(options_.telemetry.history_points) {
  if (options_.sessions.max_sessions == 0) options_.sessions.max_sessions = 1;
  manager_ =
      std::make_unique<SessionManager>(db_, options_.explain, options_.sessions);
  // Cannot fail: the manager is empty and max_sessions >= 1.
  default_session_ = *manager_->GetOrCreate("main");

  // Slow-log threshold: an explicit option wins; otherwise the
  // DBWIPES_SLOW_MS environment variable; otherwise disabled.
  slow_threshold_ms_ = options_.telemetry.slow_ms;
  if (slow_threshold_ms_ < 0.0) {
    if (const char* env = std::getenv("DBWIPES_SLOW_MS")) {
      char* end = nullptr;
      const double parsed = std::strtod(env, &end);
      if (end != env && parsed >= 0.0) slow_threshold_ms_ = parsed;
    }
  }

  if (!options_.wal.dir.empty()) {
    // Recovery happens here, before the first command can arrive:
    // latest valid snapshot (if any) + WAL replay. The constructor
    // cannot fail, so an unrecoverable log surfaces through
    // `wal status` (last_error) with the WAL left off.
    std::unique_lock<std::shared_mutex> gate(wal_gate_);
    gate_owner_.store(std::this_thread::get_id(), std::memory_order_release);
    Status st = EnableWalLocked(options_.wal.dir);
    gate_owner_.store(std::thread::id(), std::memory_order_release);
    if (!st.ok()) wal_last_error_ = "wal enable failed: " + st.ToString();
  }

  // Replication endpoints configured at construction. Failures are
  // non-fatal (constructor cannot fail) and surface in
  // `replication status` as last_error.
  if (options_.replication.listen_port >= 0) {
    std::lock_guard<std::mutex> repl(repl_mu_);
    Status st = StartReplicationListenLocked(options_.replication.listen_port);
    if (!st.ok()) repl_last_error_ = "replicate listen: " + st.ToString();
  }
  if (!options_.replication.follow.empty()) {
    std::lock_guard<std::mutex> repl(repl_mu_);
    Status st = StartReplicationFollowLocked(options_.replication.follow);
    if (!st.ok()) repl_last_error_ = "replicate from: " + st.ToString();
  }

  StartTelemetryThreads();
}

Service::~Service() {
  // Replication first: its threads call back into Execute/checkpoint
  // machinery, so they must be gone before anything else winds down.
  StopReplication();
  StopTelemetryThreads();
  Stop();
}

Session& Service::session() {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return default_session_->session;
}

std::string Service::Execute(const std::string& line) {
  return ExecuteWithRid(line, NextRequestId());
}

std::string Service::ExecuteWithRid(const std::string& line, uint64_t rid) {
  static MetricCounter* const commands =
      MetricsRegistry::Global().GetCounter("service.commands");
  static MetricCounter* const errors =
      MetricsRegistry::Global().GetCounter("service.errors");
  commands->Increment();
  // Bind the id to this thread for the command's whole run: the tracer,
  // logger, profile, and WAL all read it from here.
  RequestScope scope(rid);
  const double start_ms = MonotonicMillis();
  TrackInflightBegin(rid, line, start_ms);
  const Response response = ExecuteCommand(line);
  TrackInflightEnd(rid);
  if (!response.ok) errors->Increment();
  MaybeSlowLog(rid, line, MonotonicMillis() - start_ms, response);
  MaybeAutoCheckpoint();
  return response.Serialize(rid);
}

Service::Response Service::ExecuteCommand(const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  if (cmd.empty()) return Error("empty command");

  // `@name` routes the command to a named session; bare commands run
  // on the implicit session "main".
  std::string session_name = "main";
  if (cmd[0] == '@') {
    session_name = cmd.substr(1);
    Status st = SessionManager::ValidateName(session_name);
    if (!st.ok()) return Error(st);
    cmd.clear();
    if (!(in >> cmd)) return Error("usage: @<session> <command ...>");
  }
  const Command* command = FindCommand(cmd);
  if (command == nullptr) return Error("unknown command '" + cmd + "'");
  const Command::Variant& variant = command->Select(PeekToken(in));

  // Replay — recovery records and replicated frames, run by the thread
  // that holds the gate exclusively — takes no gate and logs nothing:
  // those records ARE this node's mutations. Everyone else: a follower
  // or fenced primary refuses primary-only commands before they can
  // touch any state.
  const bool replaying = ReplayingOnThisThread();
  if (!replaying && CommandKindIsPrimaryOnly(variant.kind)) {
    if (std::optional<Response> refusal = OffPrimaryRefusal()) {
      return *std::move(refusal);
    }
  }

  std::shared_ptr<ManagedSession> ms;
  if (command->session_scope) {
    // Hold the state lock only long enough to resolve the session:
    // command execution must not block a snapshot load's world swap
    // (in-flight commands finish against the old world, which the
    // shared_ptr keeps alive).
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    auto resolved = manager_->GetOrCreate(session_name);
    if (!resolved.ok()) return Error(resolved.status());
    ms = std::move(*resolved);
  }

  // Locks, in lock order. A logged command holds the gate shared so a
  // checkpoint never observes it half-applied, plus an ordering lock
  // so WAL order == apply order.
  const bool logged = CommandKindIsLogged(variant.kind) && !replaying;
  std::shared_lock<std::shared_mutex> shared_gate;
  std::unique_lock<std::shared_mutex> exclusive_gate;
  std::unique_lock<std::mutex> order;
  if (!replaying && (logged || variant.lock == CommandLock::kGateOrdered)) {
    shared_gate = std::shared_lock<std::shared_mutex>(wal_gate_);
  }
  if (variant.lock == CommandLock::kSession) {
    order = std::unique_lock<std::mutex>(ms->mu);
  } else if (variant.lock == CommandLock::kGateOrdered) {
    order = std::unique_lock<std::mutex>(append_wal_mu_);
  } else if (variant.lock == CommandLock::kExclusiveGate && !replaying) {
    // The owner mark lets `wal on` replay the log through this same
    // dispatch without re-taking the gate.
    exclusive_gate = std::unique_lock<std::shared_mutex>(wal_gate_);
    gate_owner_.store(std::this_thread::get_id(), std::memory_order_release);
  }

  Call call{in, session_name, ms.get()};
  Response response = command->handler(*this, call);
  if (exclusive_gate.owns_lock()) {
    gate_owner_.store(std::thread::id(), std::memory_order_release);
  }
  if (logged && response.ok) {
    // A process-wide command releases append_wal_mu_ for the fsync
    // wait; a session keeps its mutex until the command is durable.
    ApplyWalLog(command->log_line != nullptr ? command->log_line(call) : line,
                &response,
                variant.lock == CommandLock::kGateOrdered ? &order : nullptr);
  }
  return response;
}

RetryPolicy Service::CurrentRetryPolicy() const {
  RetryPolicy policy = options_.retry;
  policy.max_attempts = retry_max_attempts_.load(std::memory_order_relaxed);
  policy.initial_backoff_ms =
      retry_backoff_ms_.load(std::memory_order_relaxed);
  return policy;
}

Service::Response Service::HandleRetry(std::istream& in) {
  std::string first;
  if (!(in >> first)) {
    return Error("usage: retry <max_attempts> [initial_backoff_ms] | retry off");
  }
  if (first == "off") {
    retry_max_attempts_.store(1, std::memory_order_relaxed);
    return OkWith("retry", "{\"max_attempts\": 1}");
  }
  std::istringstream num(first);
  long long max_attempts = 0;
  if (!(num >> max_attempts) || max_attempts < 1) {
    return Error("retry: max_attempts must be a positive integer, got '" +
                 first + "'");
  }
  double backoff_ms = retry_backoff_ms_.load(std::memory_order_relaxed);
  if (in >> backoff_ms && backoff_ms < 0.0) {
    return Error("retry: initial_backoff_ms must be >= 0");
  }
  retry_max_attempts_.store(static_cast<size_t>(max_attempts),
                            std::memory_order_relaxed);
  retry_backoff_ms_.store(backoff_ms, std::memory_order_relaxed);
  return OkWith("retry",
                "{\"max_attempts\": " + std::to_string(max_attempts) +
                    ", \"initial_backoff_ms\": " + FormatDouble(backoff_ms) +
                    "}");
}

Service::Response Service::HandleSession(std::istream& in) {
  std::string sub;
  if (!(in >> sub)) return Error("usage: session list|drop|evict");

  std::shared_lock<std::shared_mutex> lock(state_mu_);

  if (sub == "list") {
    return OkWith("sessions", JsonArray(manager_->Names(), [this](
                                            const std::string& name) {
                    return "{\"name\": " + Quote(name) + ", \"idle_ms\": " +
                           FormatDouble(manager_->IdleMs(name)) + "}";
                  }));
  }

  if (sub == "drop") {
    std::string name;
    if (!(in >> name)) return Error("usage: session drop <name>");
    if (name == "main") return Error("cannot drop the default session 'main'");
    Status st = manager_->Drop(name);
    if (!st.ok()) return Error(st);
    return OkWith("dropped", Quote(name));
  }

  if (sub == "evict") {
    double idle_ms = manager_->options().idle_timeout_ms;
    in >> idle_ms;
    if (idle_ms <= 0.0) {
      return Error("session evict: idle_ms must be > 0 (or configure "
                   "an idle timeout)");
    }
    // Holding main's mutex marks it busy, so eviction skips it and the
    // default session handle can never dangle.
    std::lock_guard<std::mutex> keep_main(default_session_->mu);
    const size_t evicted = manager_->EvictIdleOlderThan(idle_ms);
    return OkWith("evicted", Count(evicted));
  }

  return Error("unknown session subcommand '" + sub + "'");
}

Service::Response Service::HandleStats() {
  std::shared_ptr<Database> db;
  {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    db = db_;
  }
  // Per-table shard telemetry rides along with the metrics snapshot so
  // a dashboard sees layout, occupancy, and cache warmth in one call.
  std::string shards = "{";
  for (const std::string& name : db->ShardedNames()) {
    auto set = db->GetShardSet(name);
    if (set == nullptr) continue;
    auto lease = set->ReadLease();
    const auto cache = ShardEngineCache::For(*set);
    if (shards.size() > 1) shards += ", ";
    shards += Quote(name) + ": {\"count\": " + Count(set->num_shards()) +
              ", \"rows\": " + JsonArray(set->ShardRowCounts(), Count) +
              ", \"cached_clauses\": " +
              JsonArray(cache->CachedClausesPerShard(), Count) +
              ", \"cached_programs\": " +
              JsonArray(cache->CachedProgramsPerShard(), Count) +
              ", \"appends\": " + Count(set->appends()) + "}";
  }
  return OkWith(
      {{"stats", MetricsRegistry::Global().SnapshotJson(/*pretty=*/false)},
       {"shards", shards + "}"}});
}

Service::Response Service::HandleShards(std::istream& in) {
  static MetricCounter* const reshards =
      MetricsRegistry::Global().GetCounter("service.reshards");

  std::string table_name;
  std::string count_text;
  if (!(in >> table_name >> count_text)) {
    return Error("usage: shards <table> <count>");
  }
  // A malformed count must come back as a well-formed JSON error, not
  // a zero-shard layout: parse strictly (no trailing junk, no signs
  // smuggled through istream's size_t wraparound).
  std::istringstream num(count_text);
  long long count = 0;
  char trailing = '\0';
  if (!(num >> count) || num >> trailing || count < 1 ||
      static_cast<unsigned long long>(count) > ShardSet::kMaxShards) {
    return Error("shards: count must be an integer in [1, " +
                 std::to_string(ShardSet::kMaxShards) + "], got '" +
                 count_text + "'");
  }

  std::shared_ptr<Database> db;
  {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    db = db_;
  }
  auto table = db->GetTable(table_name);
  if (!table.ok()) return Error(table.status());
  auto set = ShardSet::Create(**table, static_cast<size_t>(count));
  if (!set.ok()) return Error(set.status());
  db->RegisterShardSet(table_name, *set);
  reshards->Increment();

  return OkWith({{"table", Quote(table_name)},
                 {"shards", std::to_string(count)},
                 {"rows", JsonArray((*set)->ShardRowCounts(), Count)}});
}

Service::Response Service::HandleAppend(std::istream& in) {
  std::string table_name;
  if (!(in >> table_name)) {
    return Error("usage: append <table> <v1> [v2 ...] (`null` for NULL)");
  }
  std::shared_ptr<Database> db;
  {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    db = db_;
  }
  auto set = db->GetShardSet(table_name);
  if (set == nullptr) {
    // Plain tables are immutable by design; only a ShardSet has a tail
    // shard to route the row to.
    auto table = db->GetTable(table_name);
    if (!table.ok()) return Error(table.status());
    return Error("append: table '" + table_name +
                 "' is not sharded; run `shards " + table_name +
                 " <count>` first");
  }

  const Schema& schema = set->schema();
  std::vector<Value> values;
  values.reserve(schema.num_fields());
  for (const Field& field : schema.fields()) {
    // A value is a bare token, or a double-quoted string with backslash
    // escapes (std::quoted's format) that may hold spaces. Only a bare
    // `null` is NULL; a quoted "null" is the string.
    std::string token;
    const bool quoted = (in >> std::ws).peek() == '"';
    if (quoted) {
      in >> std::quoted(token);
      if (in.eof()) {
        return Error("append: unterminated quoted value for column '" +
                     field.name + "'");
      }
    } else if (!(in >> token)) {
      return Error("append: expected " + std::to_string(schema.num_fields()) +
                   " values (" + schema.ToString() + "), got " +
                   std::to_string(values.size()));
    }
    if (token == "null" && !quoted) {
      values.emplace_back();
      continue;
    }
    if (field.type == DataType::kString) {
      values.emplace_back(std::move(token));
      continue;
    }
    std::istringstream num(token);
    char trailing = '\0';
    if (field.type == DataType::kInt64) {
      int64_t v = 0;
      if (!(num >> v) || num >> trailing) {
        return Error("append: column '" + field.name + "' expects int64, got '" +
                     token + "'");
      }
      values.emplace_back(v);
    } else {
      double v = 0.0;
      if (!(num >> v) || num >> trailing) {
        return Error("append: column '" + field.name +
                     "' expects double, got '" + token + "'");
      }
      values.emplace_back(v);
    }
  }
  std::string extra;
  if (in >> extra) {
    return Error("append: too many values (schema is " + schema.ToString() +
                 ")");
  }

  Status st = set->Append(values);
  if (!st.ok()) return Error(st);
  auto lease = set->ReadLease();  // concurrent appenders may still be running
  return OkWith({{"rows", Count(set->num_rows())},
                 {"shard", Count(set->num_shards() - 1)}});
}

Service::Response Service::HandleSnapshot(std::istream& in) {
  static MetricCounter* const saves =
      MetricsRegistry::Global().GetCounter("service.snapshot_saves");
  static MetricCounter* const loads =
      MetricsRegistry::Global().GetCounter("service.snapshot_loads");

  std::string sub;
  std::string path;
  if (!(in >> sub >> path)) return Error("usage: snapshot save|load <path>");

  if (sub == "save") {
    ServiceSnapshot snapshot;
    Status st = SaveWorld(path, &snapshot, /*faults=*/nullptr);
    if (!st.ok()) return Error(st);
    saves->Increment();
    return OkWith({{"path", Quote(path)},
                   {"tables", Count(snapshot.tables.size())},
                   {"sharded", Count(snapshot.shard_layouts.size())},
                   {"sessions", Count(snapshot.sessions.size())}});
  }

  if (sub == "load") {
    // Dispatch holds the gate exclusively: the swap cannot interleave
    // with a logged mutation or a checkpoint. With the WAL on, a
    // checkpoint follows so the log's base matches the new world.
    auto snapshot = ReadSnapshot(path);
    if (!snapshot.ok()) return Error(snapshot.status());
    Status st = LoadWorld(*snapshot);
    if (!st.ok()) return Error(st);
    loads->Increment();
    if (wal_ != nullptr) {
      st = CheckpointLocked();
      if (!st.ok()) wal_last_error_ = st.ToString();
    }
    return OkWith({{"tables", Count(snapshot->tables.size())},
                   {"sharded", Count(snapshot->shard_layouts.size())},
                   {"sessions", Count(snapshot->sessions.size())}});
  }

  return Error("unknown snapshot subcommand '" + sub + "'");
}

Status Service::LoadWorld(const ServiceSnapshot& snapshot) {
  // Validate and rebuild the whole world off to the side; the live
  // service is untouched until the final swap, so any failure —
  // corrupt file, missing table, unreplayable state — leaves the
  // prior state exactly as it was.
  auto db = std::make_shared<Database>();
  for (const auto& [name, table] : snapshot.tables) {
    db->RegisterTable(name, table);
  }
  // Re-shard after ALL tables are registered (RegisterTable clears
  // any shard layout for its name). CreateWithRows re-derives every
  // shard — contents, dictionaries, codes — from the fused rows, so
  // the restored clause bitmaps match the pre-crash ones bit for bit.
  for (const ServiceSnapshot::ShardLayout& layout : snapshot.shard_layouts) {
    auto table = db->GetTable(layout.table);
    if (!table.ok()) {
      return Status::InvalidArgument(
          "snapshot load: shard layout references unknown table '" +
          layout.table + "'");
    }
    std::vector<size_t> shard_rows(layout.shard_rows.begin(),
                                   layout.shard_rows.end());
    auto set = ShardSet::CreateWithRows(**table, shard_rows);
    if (!set.ok()) {
      return Status::InvalidArgument(
          "snapshot load: cannot rebuild shards for table '" + layout.table +
          "': " + set.status().ToString());
    }
    db->RegisterShardSet(layout.table, *set);
  }
  auto manager = std::make_unique<SessionManager>(db, options_.explain,
                                                  options_.sessions);
  for (const auto& state : snapshot.sessions) {
    auto ms = manager->GetOrCreate(state.name);
    if (!ms.ok()) {
      return Status::InvalidArgument("snapshot load: cannot recreate session '" +
                                     state.name +
                                     "': " + ms.status().ToString());
    }
    (*ms)->settings = state.settings;
    Status st = ReplaySessionState(**ms, state.replay);
    if (!st.ok()) {
      return Status::InvalidArgument("snapshot load: replay failed for session '" +
                                     state.name + "': " + st.ToString());
    }
  }
  auto main = manager->GetOrCreate("main");
  if (!main.ok()) return main.status();

  if (snapshot.retry_max_attempts > 0) {
    retry_max_attempts_.store(snapshot.retry_max_attempts,
                              std::memory_order_relaxed);
    retry_backoff_ms_.store(snapshot.retry_backoff_ms,
                            std::memory_order_relaxed);
  }
  {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    db_ = std::move(db);
    manager_ = std::move(manager);
    default_session_ = std::move(*main);
  }
  return Status::OK();
}

Status Service::SaveWorld(const std::string& path, ServiceSnapshot* snapshot,
                          FaultInjector* faults) {
  std::shared_ptr<Database> db;
  std::vector<std::pair<std::string, std::shared_ptr<ManagedSession>>> live;
  {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    db = db_;
    for (const std::string& name : manager_->Names()) {
      auto ms = manager_->Find(name);
      if (ms != nullptr) live.emplace_back(name, std::move(ms));
    }
  }
  for (auto& [name, ms] : live) {
    // Per-session lock: each session is serialized mid-command-free
    // into the snapshot (sessions are independent, so cross-session
    // interleaving cannot produce a torn state). Sessions come BEFORE
    // the shard leases below: a session command holds its mutex while
    // taking a shard read lease, so acquiring in the opposite order
    // here would be a lock-order inversion.
    std::lock_guard<std::mutex> lock(ms->mu);
    snapshot->sessions.push_back({name, ms->settings, ms->replay});
  }
  // Read-lease every sharded table BEFORE serializing so an append
  // cannot tear a fused table mid-save; the leases (and their sets, which
  // a concurrent reshard could otherwise free) stay held through
  // WriteSnapshot. Only the boundaries are persisted — the restore
  // rebuilds shard contents (and dictionaries) from the fused rows.
  std::vector<std::shared_ptr<ShardSet>> sets;
  std::vector<std::shared_lock<std::shared_mutex>> leases;
  for (const std::string& name : db->ShardedNames()) {
    auto set = db->GetShardSet(name);
    if (set == nullptr) continue;
    leases.push_back(set->ReadLease());
    ServiceSnapshot::ShardLayout layout;
    layout.table = name;
    for (size_t rows : set->ShardRowCounts()) {
      layout.shard_rows.push_back(rows);
    }
    snapshot->shard_layouts.push_back(std::move(layout));
    sets.push_back(std::move(set));
  }
  for (const std::string& name : db->TableNames()) {
    auto table = db->GetTable(name);
    if (table.ok()) snapshot->tables.emplace_back(name, *table);
  }
  snapshot->retry_max_attempts = static_cast<uint32_t>(
      retry_max_attempts_.load(std::memory_order_relaxed));
  snapshot->retry_backoff_ms =
      retry_backoff_ms_.load(std::memory_order_relaxed);
  return WriteSnapshot(path, *snapshot, faults);
}

Status Service::CheckpointLocked() {
  if (wal_ == nullptr) return Status::InvalidArgument("wal is off");
  if (wal_faults_ != nullptr) {
    DBW_RETURN_NOT_OK(wal_faults_->Hit("checkpoint/begin"));
  }
  // The exclusive gate excludes every logged command, so the durable
  // lsn is exactly what the saved world holds. The write is tmp + fsync
  // + atomic rename + dir fsync, so a crash anywhere in here leaves the
  // PREVIOUS snapshot intact and the log untruncated — recovery just
  // replays more.
  ServiceSnapshot snapshot;
  snapshot.wal_lsn = wal_->durable_lsn();
  DBW_RETURN_NOT_OK(
      SaveWorld(wal_->dir() + "/snapshot.dbw", &snapshot, wal_faults_));
  wal_snapshot_lsn_ = snapshot.wal_lsn;
  // Truncation only ever drops CLOSED segments, so rotate first: after
  // a quiet period the whole backlog is in the (now closed) last
  // segment and would otherwise never be reclaimed.
  DBW_RETURN_NOT_OK(wal_->Rotate());
  if (wal_faults_ != nullptr) {
    DBW_RETURN_NOT_OK(wal_faults_->Hit("checkpoint/truncate"));
  }
  DBW_RETURN_NOT_OK(wal_->TruncateThrough(snapshot.wal_lsn));
  ++wal_checkpoints_;
  MetricsRegistry::Global().GetCounter("wal.checkpoints")->Increment();
  wal_last_error_.clear();
  return Status::OK();
}

void Service::MaybeAutoCheckpoint() {
  if (!wal_enabled_.load(std::memory_order_acquire)) return;
  if (ReplayingOnThisThread()) return;
  const size_t threshold = options_.wal.checkpoint_bytes;
  if (threshold == 0) return;  // auto-checkpointing disabled
  {
    // Cheap probe under the shared gate; try_to_lock so this never
    // stalls behind a checkpoint already in progress.
    std::shared_lock<std::shared_mutex> gate(wal_gate_, std::try_to_lock);
    if (!gate.owns_lock() || wal_ == nullptr) return;
    if (wal_->total_bytes() < threshold) return;
  }
  std::unique_lock<std::shared_mutex> gate(wal_gate_, std::try_to_lock);
  if (!gate.owns_lock()) return;  // someone else will get there
  // Re-check: another thread may have checkpointed between the probe
  // and the exclusive acquisition.
  if (wal_ == nullptr || wal_->total_bytes() < threshold) return;
  Status st = CheckpointLocked();
  if (!st.ok()) wal_last_error_ = st.ToString();
}

void Service::ApplyWalLog(const std::string& logged_line, Response* response,
                          std::unique_lock<std::mutex>* order) {
  WriteAheadLog* wal = wal_.get();  // stable: caller holds the shared gate
  if (wal == nullptr) return;
  // Stage while the ordering lock is still held (so the log's LSN
  // order matches apply order), then drop it for the commit wait: the
  // next client can apply + stage while our fsync is in flight, and
  // the group-commit leader acknowledges both with one fsync.
  auto ticket = wal->StageCommand(logged_line, CurrentRequestId());
  Status st = ticket.ok() ? Status::OK() : ticket.status();
  if (st.ok()) {
    if (order != nullptr && order->owns_lock()) order->unlock();
    st = wal->WaitDurable(*ticket);
  }
  if (!st.ok()) {
    // The gray zone: the command IS applied in memory but is NOT
    // durable — a crash now silently loses it. Deliberately not
    // "retryable": re-running the command would double-apply it.
    *response = Error("wal append failed: " + st.ToString());
    response->durability = "lost";
    response->applied = true;
  }
}

Status Service::EnableWalLocked(const std::string& dir) {
  if (wal_ != nullptr) {
    return Status::InvalidArgument("wal is already on (dir '" + wal_->dir() +
                                   "')");
  }
  const auto start = std::chrono::steady_clock::now();
  WalOptions wal_options = options_.wal;
  wal_options.dir = dir;
  wal_faults_ = wal_options.faults != nullptr ? wal_options.faults : faults_;
  wal_options.faults = wal_faults_;
  DBW_ASSIGN_OR_RETURN(auto wal, WriteAheadLog::Open(std::move(wal_options)));
  wal_dir_hint_ = dir;

  // Replication epoch recovery: a promoted follower must come back at
  // its promoted epoch, or a restarted stale primary could outrank it.
  {
    auto epoch = LoadReplicationEpoch(dir);
    if (!epoch.ok()) return epoch.status();
    if (*epoch > repl_epoch_.load(std::memory_order_acquire)) {
      repl_epoch_.store(*epoch, std::memory_order_release);
    }
    if (*epoch > repl_seen_epoch_.load(std::memory_order_acquire)) {
      repl_seen_epoch_.store(*epoch, std::memory_order_release);
    }
    MetricsRegistry::Global().GetGauge("repl.epoch")->Set(
        static_cast<int64_t>(repl_epoch_.load(std::memory_order_acquire)));
  }

  wal_snapshot_lsn_ = 0;
  wal_replayed_ = 0;
  wal_replay_errors_ = 0;

  // Recovery = latest valid snapshot + replay of every logged command
  // after its LSN. The snapshot read fully validates before anything
  // is applied, so a corrupt snapshot aborts with the live (fresh)
  // world untouched.
  const std::string snapshot_path = dir + "/snapshot.dbw";
  const bool have_snapshot = ::access(snapshot_path.c_str(), F_OK) == 0;
  if (have_snapshot) {
    auto snapshot = ReadSnapshot(snapshot_path);
    if (!snapshot.ok()) return snapshot.status();
    DBW_RETURN_NOT_OK(LoadWorld(*snapshot));
    wal_snapshot_lsn_ = snapshot->wal_lsn;
  }
  size_t replayed = 0;
  size_t errors = 0;
  DBW_RETURN_NOT_OK(wal->Replay(
      wal_snapshot_lsn_,
      [&](uint64_t /*lsn*/, uint64_t rid, uint8_t type,
          const std::string& body) -> Status {
        if (type != WriteAheadLog::kRecordCommand) {
          return Status::IoError("wal replay: unknown record type " +
                                 std::to_string(type));
        }
        ++replayed;
        // Run the command under its ORIGINAL request id (recovered from
        // the frame), so replay trace spans and log lines correlate
        // with the pre-crash request that wrote the record.
        RequestScope frame_scope(rid);
        // Through the normal dispatch — this thread owns the gate, so
        // gating and re-logging are skipped (wal_ is also still null).
        // Only ok responses were logged, so a failure here means the
        // record no longer applies; count it rather than abort, since
        // later records may be independent of it.
        if (!ExecuteCommand(body).ok) ++errors;
        return Status::OK();
      }));
  wal_replayed_ = replayed;
  wal_replay_errors_ = errors;
  wal_ = std::move(wal);
  wal_enabled_.store(true, std::memory_order_release);

  // Anchor the recovered world: a fresh dir gets its initial snapshot,
  // a replayed one compacts the log so the next recovery is O(new
  // work). Failure is non-fatal — the log still holds everything, the
  // atomic snapshot write left the old file valid.
  if (replayed > 0 || !have_snapshot) {
    Status st = CheckpointLocked();
    if (!st.ok()) wal_last_error_ = st.ToString();
  }
  wal_recovery_ms_ = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  MetricsRegistry::Global().GetCounter("wal.replayed")->Increment(replayed);
  MetricsRegistry::Global()
      .GetHistogram("wal.recovery_ms")
      ->Observe(wal_recovery_ms_);
  return Status::OK();
}

Service::Response Service::HandleWal(std::istream& in) {
  std::string sub;
  if (!(in >> sub)) return Error("usage: wal on <dir>|off|status|checkpoint");

  if (sub == "on") {
    // Dispatch holds the gate exclusively with this thread as its
    // owner, so recovery replays the log through the same dispatch.
    std::string dir;
    if (!(in >> dir)) return Error("usage: wal on <dir>");
    Status st = EnableWalLocked(dir);
    if (!st.ok()) return Error(st);
    return OkWith({{"wal", "\"on\""}, {"dir", Quote(dir)},
                   {"replayed", Count(wal_replayed_)},
                   {"replay_errors", Count(wal_replay_errors_)},
                   {"recovery_ms", FormatDouble(wal_recovery_ms_)}});
  }

  if (sub == "off") {
    // repl_mu_ before wal_gate_ (the lock order replication start
    // established); held across the whole disable so a `replicate
    // listen` cannot slip in between the check and the reset.
    std::lock_guard<std::mutex> repl(repl_mu_);
    if (repl_server_ != nullptr || repl_client_ != nullptr) {
      return Error(
          "wal off: replication is active; run `replicate stop` first");
    }
    std::unique_lock<std::shared_mutex> gate(wal_gate_);
    if (wal_ == nullptr) return Error("wal is off");
    // Seal the current state into the snapshot before dropping the
    // log; if that fails, stay on — turning off would lose the tail.
    Status st = CheckpointLocked();
    if (!st.ok()) return Error(st);
    wal_enabled_.store(false, std::memory_order_release);
    wal_.reset();
    return OkWith("wal", "\"off\"");
  }

  if (sub == "checkpoint") {  // dispatch holds the gate exclusively
    if (wal_ == nullptr) return Error("wal is off");
    Status st = CheckpointLocked();
    if (!st.ok()) return Error(st);
    return OkWith({{"checkpoint_lsn", std::to_string(wal_snapshot_lsn_)},
                   {"segments", Count(wal_->num_segments())}});
  }

  if (sub == "status") {
    std::shared_lock<std::shared_mutex> gate(wal_gate_);
    Response r;
    r.Add("enabled", wal_ != nullptr ? "true" : "false");
    if (wal_ != nullptr) {
      const WalStats s = wal_->stats();
      r.Add("dir", Quote(wal_->dir()));
      r.Add("next_lsn", std::to_string(s.next_lsn));
      r.Add("durable_lsn", std::to_string(s.durable_lsn));
      r.Add("segments", Count(s.segments));
      r.Add("wal_bytes", std::to_string(s.total_bytes));
      r.Add("appends", std::to_string(s.appends));
      r.Add("fsyncs", std::to_string(s.fsyncs));
      r.Add("poisoned", s.poisoned ? "true" : "false");
      r.Add("snapshot_lsn", std::to_string(wal_snapshot_lsn_));
      r.Add("checkpoints", Count(wal_checkpoints_));
      r.Add("replayed", Count(wal_replayed_));
      r.Add("replay_errors", Count(wal_replay_errors_));
      r.Add("recovery_ms", FormatDouble(wal_recovery_ms_));
    }
    r.Add("last_error", Quote(wal_last_error_));
    return r;
  }

  return Error("unknown wal subcommand '" + sub + "'");
}

// --- Replication (DESIGN.md §5l) ---

namespace {

Status ReadFileBytes(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  out->clear();
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::IoError("read " + path + " failed");
  return Status::OK();
}

/// Unlinks every wal-*.log segment file in `dir` (the local log is
/// about to be replaced by a shipped snapshot's history).
Status RemoveWalSegments(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IoError("opendir " + dir + ": " + std::strerror(errno));
  }
  Status st = Status::OK();
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() < 8 || name.compare(0, 4, "wal-") != 0 ||
        name.compare(name.size() - 4, 4, ".log") != 0) {
      continue;
    }
    const std::string path = dir + "/" + name;
    if (::unlink(path.c_str()) != 0) {
      st = Status::IoError("unlink " + path + ": " + std::strerror(errno));
      break;
    }
  }
  ::closedir(d);
  return st;
}

}  // namespace

std::optional<Service::Response> Service::OffPrimaryRefusal() const {
  if (follower_.load(std::memory_order_acquire)) {
    Response r = Error(
        "not primary: this node is a read-only replica; retry against the "
        "primary");
    r.retryable = true;
    r.reason = "not_primary";
    r.retry_after_ms = options_.replication.not_primary_retry_after_ms;
    return r;
  }
  if (repl_fenced_.load(std::memory_order_acquire)) {
    Response r = Error(
        "epoch fenced: this primary (epoch " +
        std::to_string(repl_epoch_.load(std::memory_order_acquire)) +
        ") observed epoch " +
        std::to_string(repl_seen_epoch_.load(std::memory_order_acquire)) +
        " from a newer primary and can no longer accept writes");
    r.reason = "fenced";
    return r;
  }
  return std::nullopt;
}

Status Service::StartReplicationListenLocked(int port) {
  if (repl_server_ != nullptr) {
    return Status::InvalidArgument(
        "replication server already listening on port " +
        std::to_string(repl_server_->port()));
  }
  if (follower_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument(
        "this node is a follower; promote it before it can serve replicas");
  }
  WriteAheadLog* wal = nullptr;
  {
    std::shared_lock<std::shared_mutex> gate(wal_gate_);
    wal = wal_.get();
  }
  if (wal == nullptr) {
    return Status::InvalidArgument(
        "replicate listen requires the wal (run `wal on <dir>` first)");
  }
  ReplicationServerOptions o;
  o.port = static_cast<uint16_t>(port);
  o.heartbeat_interval_ms = options_.replication.heartbeat_interval_ms;
  o.faults = options_.replication.faults != nullptr
                 ? options_.replication.faults
                 : faults_;
  ReplicationServer::Source source;
  source.wal = wal;
  source.epoch = [this] {
    return repl_epoch_.load(std::memory_order_acquire);
  };
  source.observe_epoch = [this](uint64_t e) { ObserveReplicationEpoch(e); };
  source.snapshot = [this] { return ReplicationSnapshotImage(); };
  auto server = std::make_unique<ReplicationServer>();
  DBW_RETURN_NOT_OK(server->Start(o, std::move(source)));
  repl_server_ = std::move(server);
  MetricsRegistry::Global().GetGauge("repl.epoch")->Set(
      static_cast<int64_t>(repl_epoch_.load(std::memory_order_acquire)));
  return Status::OK();
}

Status Service::StartReplicationFollowLocked(const std::string& target) {
  if (repl_client_ != nullptr) {
    return Status::InvalidArgument("already following a primary");
  }
  if (repl_server_ != nullptr) {
    return Status::InvalidArgument(
        "this node serves followers; `replicate stop` first");
  }
  const size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= target.size()) {
    return Status::InvalidArgument("replicate from wants <host>:<port>, got '" +
                                   target + "'");
  }
  const std::string host = target.substr(0, colon);
  char* end = nullptr;
  const long port = std::strtol(target.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || port <= 0 || port > 65535) {
    return Status::InvalidArgument("bad replication port in '" + target + "'");
  }

  // The local durable log is the resume point: everything in it was
  // acked by this follower, so the stream restarts right after it.
  {
    std::shared_lock<std::shared_mutex> gate(wal_gate_);
    repl_last_applied_.store(wal_ != nullptr ? wal_->durable_lsn() : 0,
                             std::memory_order_release);
  }

  ReplicationClientOptions o;
  o.host = host;
  o.port = static_cast<uint16_t>(port);
  o.heartbeat_timeout_ms = options_.replication.heartbeat_timeout_ms;
  o.reconnect = options_.replication.reconnect;
  o.faults = options_.replication.faults != nullptr
                 ? options_.replication.faults
                 : faults_;
  ReplicationClient::Callbacks cb;
  cb.last_applied = [this] {
    return repl_last_applied_.load(std::memory_order_acquire);
  };
  cb.epoch = [this] { return repl_epoch_.load(std::memory_order_acquire); };
  cb.observe_epoch = [this](uint64_t e) { ObserveReplicationEpoch(e); };
  cb.apply = [this](uint64_t lsn, uint64_t rid, const std::string& body) {
    return ApplyReplicatedFrame(lsn, rid, body);
  };
  cb.install_snapshot = [this](const std::string& bytes, uint64_t lsn) {
    return InstallReplicaSnapshot(bytes, lsn);
  };

  // Flag the role BEFORE the client thread exists so no mutation can
  // slip in between "client running" and "mutations rejected".
  follower_.store(true, std::memory_order_release);
  repl_fenced_.store(false, std::memory_order_release);
  auto client = std::make_unique<ReplicationClient>();
  Status st = client->Start(std::move(o), std::move(cb));
  if (!st.ok()) {
    follower_.store(false, std::memory_order_release);
    return st;
  }
  repl_client_ = std::move(client);
  return Status::OK();
}

Service::Response Service::HandleReplicate(std::istream& in) {
  std::string sub;
  if (!(in >> sub)) {
    return Error("usage: replicate listen <port>|from <host>:<port>|stop|status");
  }
  if (sub == "status") return HandleReplicationStatus();
  if (sub == "stop") {
    // Joins the endpoint threads (outside repl_mu_ — they call back
    // into the service). The follower ROLE survives a stop: `promote`
    // is the explicit exit from it, so a paused follower still refuses
    // writes it could never have replicated.
    bool was_listening = false;
    bool was_following = false;
    {
      std::lock_guard<std::mutex> repl(repl_mu_);
      was_listening = repl_server_ != nullptr;
      was_following = repl_client_ != nullptr;
    }
    StopReplication();
    return OkWith({{"stopped_listener", was_listening ? "true" : "false"},
                   {"stopped_follower", was_following ? "true" : "false"}});
  }

  std::lock_guard<std::mutex> repl(repl_mu_);
  if (sub == "listen") {
    int port = -1;
    if (!(in >> port) || port < 0 || port > 65535) {
      return Error("usage: replicate listen <port> (0 picks an ephemeral port)");
    }
    Status st = StartReplicationListenLocked(port);
    if (!st.ok()) return Error(st);
    const uint64_t epoch = repl_epoch_.load(std::memory_order_acquire);
    return OkWith({{"listening", "true"},
                   {"port", std::to_string(repl_server_->port())},
                   {"epoch", std::to_string(epoch)}});
  }
  if (sub == "from") {
    std::string target;
    if (!(in >> target)) return Error("usage: replicate from <host>:<port>");
    Status st = StartReplicationFollowLocked(target);
    if (!st.ok()) return Error(st);
    const uint64_t epoch = repl_epoch_.load(std::memory_order_acquire);
    const uint64_t applied = repl_last_applied_.load(std::memory_order_acquire);
    return OkWith({{"following", Quote(target)},
                   {"epoch", std::to_string(epoch)},
                   {"last_applied_lsn", std::to_string(applied)}});
  }
  return Error("unknown replicate subcommand '" + sub + "'");
}

Service::Response Service::HandleReplicationStatus() {
  auto flag = [](bool b) { return b ? "true" : "false"; };
  auto num = [](uint64_t n) { return std::to_string(n); };
  Response r;
  r.Add("role", follower_.load(std::memory_order_acquire) ? "\"follower\""
                                                          : "\"primary\"");
  r.Add("epoch", num(repl_epoch_.load(std::memory_order_acquire)));
  r.Add("seen_epoch", num(repl_seen_epoch_.load(std::memory_order_acquire)));
  r.Add("fenced", flag(repl_fenced_.load(std::memory_order_acquire)));
  r.Add("last_applied_lsn",
        num(repl_last_applied_.load(std::memory_order_acquire)));
  std::lock_guard<std::mutex> repl(repl_mu_);
  r.Add("promotions", num(repl_promotions_));
  r.Add("listening", flag(repl_server_ != nullptr));
  if (repl_server_ != nullptr) {
    const ReplicationServer::Stats s = repl_server_->stats();
    r.Add("port", num(s.port));
    r.Add("followers", num(s.followers));
    r.Add("min_acked_lsn", num(s.min_acked_lsn));
    r.Add("frames_sent", num(s.frames_sent));
    r.Add("snapshots_sent", num(s.snapshots_sent));
    r.Add("epoch_refusals", num(s.epoch_refusals));
  }
  r.Add("following", flag(repl_client_ != nullptr));
  if (repl_client_ != nullptr) {
    const ReplicationClient::Stats s = repl_client_->stats();
    r.Add("connected", flag(s.connected));
    r.Add("source_epoch", num(s.source_epoch));
    r.Add("source_durable_lsn", num(s.source_durable_lsn));
    r.Add("reconnects", num(s.reconnects));
    r.Add("frames_applied", num(s.frames_applied));
    r.Add("snapshot_installs", num(s.snapshot_installs));
    r.Add("corrupt_frames", num(s.corrupt_frames));
    r.Add("fenced_source", flag(s.fenced));
    r.Add("stream_error", Quote(s.last_error));
  }
  r.Add("last_error", Quote(repl_last_error_));
  return r;
}

Service::Response Service::HandlePromote() {
  // A fenced stale primary stays fenced: its acknowledged history may
  // already have diverged from the new primary's, so promotion would
  // institutionalize a split brain. Explicit epoch error per the
  // failover runbook: wipe and re-follow instead.
  if (repl_fenced_.load(std::memory_order_acquire) &&
      !follower_.load(std::memory_order_acquire)) {
    return Error(
        "epoch fenced: this node (epoch " +
        std::to_string(repl_epoch_.load(std::memory_order_acquire)) +
        ") observed epoch " +
        std::to_string(repl_seen_epoch_.load(std::memory_order_acquire)) +
        "; promotion refused — resync this node as a follower instead");
  }
  if (!follower_.load(std::memory_order_acquire)) {
    return Error("promote: this node is already a primary");
  }

  // Disconnect from the old primary first: Stop() joins the client
  // thread, so after this no apply/install is in flight and
  // last_applied is final.
  std::unique_ptr<ReplicationClient> client;
  {
    std::lock_guard<std::mutex> repl(repl_mu_);
    client = std::move(repl_client_);
  }
  if (client != nullptr) client->Stop();
  client.reset();

  const uint64_t new_epoch =
      std::max(repl_epoch_.load(std::memory_order_acquire),
               repl_seen_epoch_.load(std::memory_order_acquire)) +
      1;
  {
    // Persist BEFORE accepting writes: an acknowledged promotion must
    // survive a crash-restart, or this node could come back at its old
    // epoch and lose a fencing duel it already won.
    std::lock_guard<std::mutex> lock(epoch_file_mu_);
    std::string dir;
    {
      std::shared_lock<std::shared_mutex> gate(wal_gate_);
      if (wal_ != nullptr) dir = wal_->dir();
    }
    if (!dir.empty()) {
      Status st = StoreReplicationEpoch(dir, new_epoch);
      if (!st.ok()) {
        return Error("promote: cannot persist epoch " +
                     std::to_string(new_epoch) + ": " + st.ToString());
      }
    }
    repl_epoch_.store(new_epoch, std::memory_order_release);
    uint64_t seen = repl_seen_epoch_.load(std::memory_order_acquire);
    while (new_epoch > seen &&
           !repl_seen_epoch_.compare_exchange_weak(seen, new_epoch)) {
    }
  }
  follower_.store(false, std::memory_order_release);
  repl_fenced_.store(false, std::memory_order_release);
  MetricsRegistry::Global().GetGauge("repl.epoch")->Set(
      static_cast<int64_t>(new_epoch));
  MetricsRegistry::Global().GetCounter("repl.promotions")->Increment();
  {
    std::lock_guard<std::mutex> repl(repl_mu_);
    ++repl_promotions_;
  }
  const uint64_t applied = repl_last_applied_.load(std::memory_order_acquire);
  return OkWith({{"promoted", "true"},
                 {"epoch", std::to_string(new_epoch)},
                 {"last_applied_lsn", std::to_string(applied)}});
}

Status Service::ApplyReplicatedFrame(uint64_t lsn, uint64_t rid,
                                     const std::string& body) {
  // Exclusive gate + gate_owner_ puts the re-entrant ExecuteCommand in
  // replay mode: the frame runs under its ORIGINAL rid, skips gating
  // and internal logging, and cannot interleave with a checkpoint.
  std::unique_lock<std::shared_mutex> gate(wal_gate_);
  gate_owner_.store(std::this_thread::get_id(), std::memory_order_release);
  bool applied_ok = false;
  {
    RequestScope scope(rid);
    applied_ok = ExecuteCommand(body).ok;
  }
  // Mirror the frame into the local log at exactly the primary's LSN,
  // and make it durable before acking — the primary then knows acked
  // frames survive a follower crash (recovery replays them normally).
  Status st = Status::OK();
  if (wal_ != nullptr) {
    auto ticket = wal_->StageCommand(body, rid);
    if (!ticket.ok()) {
      st = ticket.status();
    } else if (ticket->lsn != lsn) {
      st = Status::IoError(
          "replica log diverged: local log assigned lsn " +
          std::to_string(ticket->lsn) + " to stream lsn " +
          std::to_string(lsn) + "; snapshot resync required");
    } else {
      st = wal_->WaitDurable(*ticket);
    }
  }
  gate_owner_.store(std::thread::id(), std::memory_order_release);
  gate.unlock();
  if (!st.ok()) return st;
  repl_last_applied_.store(lsn, std::memory_order_release);
  MetricsRegistry::Global().GetGauge("repl.last_applied_lsn")->Set(
      static_cast<int64_t>(lsn));
  if (!applied_ok) {
    // Only ok responses were logged on the primary, so a not-ok here
    // means the replica drifted semantically; count it loudly but keep
    // the stream alive — the frame is recorded either way.
    MetricsRegistry::Global().GetCounter("repl.apply_errors")->Increment();
  }
  MaybeAutoCheckpoint();
  return Status::OK();
}

Status Service::InstallReplicaSnapshot(const std::string& bytes,
                                       uint64_t snapshot_lsn) {
  DBW_ASSIGN_OR_RETURN(ServiceSnapshot snap,
                       ReadSnapshotFromBytes(bytes, "replication snapshot"));
  if (snap.wal_lsn != snapshot_lsn) {
    return Status::IoError(
        "replication snapshot lsn mismatch: file says " +
        std::to_string(snap.wal_lsn) + ", stream says " +
        std::to_string(snapshot_lsn));
  }

  std::unique_lock<std::shared_mutex> gate(wal_gate_);
  std::string dir = wal_dir_hint_;
  if (wal_ != nullptr) dir = wal_->dir();
  if (!dir.empty()) {
    // Replace the local log wholesale: its history belongs to a
    // different timeline than the snapshot we are installing. Order —
    // close, wipe segments, reopen at snapshot_lsn + 1, persist the
    // snapshot — keeps every intermediate state recoverable (worst
    // case: old snapshot + no log = the state before this install; the
    // stream re-syncs on the next connect).
    wal_enabled_.store(false, std::memory_order_release);
    wal_.reset();
    DBW_RETURN_NOT_OK(RemoveWalSegments(dir));
    WalOptions wal_options = options_.wal;
    wal_options.dir = dir;
    wal_faults_ = wal_options.faults != nullptr ? wal_options.faults : faults_;
    wal_options.faults = wal_faults_;
    wal_options.start_lsn = snapshot_lsn + 1;
    DBW_ASSIGN_OR_RETURN(auto wal, WriteAheadLog::Open(std::move(wal_options)));
    DBW_RETURN_NOT_OK(WriteSnapshot(dir + "/snapshot.dbw", snap, wal_faults_));
    wal_ = std::move(wal);
    wal_enabled_.store(true, std::memory_order_release);
    wal_snapshot_lsn_ = snapshot_lsn;
  }
  DBW_RETURN_NOT_OK(LoadWorld(snap));
  gate.unlock();
  repl_last_applied_.store(snapshot_lsn, std::memory_order_release);
  MetricsRegistry::Global().GetGauge("repl.last_applied_lsn")->Set(
      static_cast<int64_t>(snapshot_lsn));
  return Status::OK();
}

Result<std::pair<std::string, uint64_t>> Service::ReplicationSnapshotImage() {
  // Exclusive gate: nothing can mutate or checkpoint while the image
  // is captured, so the file read here IS the latest checkpoint and
  // the log above its wal_lsn is guaranteed intact (TruncateThrough
  // only retires records <= that lsn).
  std::unique_lock<std::shared_mutex> gate(wal_gate_);
  if (wal_ == nullptr) {
    return Status::InvalidArgument("replication snapshot: wal is off");
  }
  const std::string path = wal_->dir() + "/snapshot.dbw";
  bool checkpointed = false;
  if (::access(path.c_str(), F_OK) != 0) {
    DBW_RETURN_NOT_OK(CheckpointLocked());
    checkpointed = true;
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::string bytes;
    DBW_RETURN_NOT_OK(ReadFileBytes(path, &bytes));
    auto snap = ReadSnapshotFromBytes(bytes, path);
    if (snap.ok() && wal_->CanReplayAfter(snap->wal_lsn)) {
      return std::make_pair(std::move(bytes), snap->wal_lsn);
    }
    if (checkpointed) break;  // a fresh checkpoint should never fail this
    // Stale or damaged file: write a fresh checkpoint and retry once.
    DBW_RETURN_NOT_OK(CheckpointLocked());
    checkpointed = true;
  }
  return Status::IoError(
      "replication snapshot: cannot produce a tailable checkpoint image");
}

void Service::ObserveReplicationEpoch(uint64_t epoch) {
  uint64_t seen = repl_seen_epoch_.load(std::memory_order_acquire);
  while (epoch > seen &&
         !repl_seen_epoch_.compare_exchange_weak(seen, epoch)) {
  }
  const uint64_t own = repl_epoch_.load(std::memory_order_acquire);
  if (epoch <= own) return;
  if (follower_.load(std::memory_order_acquire)) {
    // A follower adopts its primary's newer epoch (and persists it, so
    // a crash can't roll the epoch back below history it acked).
    std::lock_guard<std::mutex> lock(epoch_file_mu_);
    if (epoch <= repl_epoch_.load(std::memory_order_acquire)) return;
    std::string dir;
    {
      std::shared_lock<std::shared_mutex> gate(wal_gate_);
      if (wal_ != nullptr) dir = wal_->dir();
    }
    if (!dir.empty()) {
      // Best-effort: the atomic rename rarely fails, and a lost adopt
      // only delays re-adoption to the next heartbeat.
      (void)StoreReplicationEpoch(dir, epoch);
    }
    repl_epoch_.store(epoch, std::memory_order_release);
    MetricsRegistry::Global().GetGauge("repl.epoch")->Set(
        static_cast<int64_t>(epoch));
  } else {
    // A primary that sees a newer epoch has been superseded: fence it.
    // Runtime-only state — a fenced primary's operator wipes/resyncs
    // it rather than restarting it into a second life.
    repl_fenced_.store(true, std::memory_order_release);
    MetricsRegistry::Global().GetGauge("repl.fenced")->Set(1);
  }
}

void Service::StopReplication() {
  std::unique_ptr<ReplicationServer> server;
  std::unique_ptr<ReplicationClient> client;
  {
    std::lock_guard<std::mutex> repl(repl_mu_);
    server = std::move(repl_server_);
    client = std::move(repl_client_);
  }
  // Outside repl_mu_: Stop() joins threads whose callbacks may be
  // mid-flight inside this service.
  if (client != nullptr) client->Stop();
  if (server != nullptr) server->Stop();
}

// --- Request telemetry (DESIGN.md §5k) ---

Service::Response Service::HandleHistory(std::istream& in) {
  std::string metric;
  in >> metric;
  Response r;

  if (metric.empty()) {
    // No metric: describe the store (series names + configuration).
    r.Add("sampling", options_.telemetry.history_enabled ? "true" : "false");
    r.Add("interval_ms", FormatDouble(options_.telemetry.sample_interval_ms));
    r.Add("points_per_series", Count(history_.points_per_series()));
    r.Add("memory_bytes", Count(history_.MemoryBytes()));
    r.Add("series", JsonArray(history_.Names(), Quote));
    return r;
  }

  double window_ms = 0.0;  // <= 0: the whole ring
  in >> window_ms;
  r.Add("metric", Quote(metric));
  r.Add("points",
        JsonArray(history_.Query(metric, window_ms, MonotonicMillis()),
                  [](const TelemetryHistory::Point& p) {
                    return "{\"t_ms\": " + FormatDouble(p.t_ms) +
                           ", \"value\": " + FormatDouble(p.value) + "}";
                  }));
  return r;
}

Service::Response Service::HandleSlowlog() {
  std::string entries;
  {
    std::lock_guard<std::mutex> lock(slowlog_mu_);
    // Entries are already JSON objects.
    entries = JsonArray(slowlog_, [](const std::string& e) { return e; });
  }
  return OkWith({{"threshold_ms", FormatDouble(slow_threshold_ms_)},
                 {"entries", entries}});
}

void Service::MaybeSlowLog(uint64_t rid, const std::string& line,
                           double elapsed_ms, const Response& response) {
  if (slow_threshold_ms_ < 0.0 || elapsed_ms < slow_threshold_ms_) return;
  static MetricCounter* const slow =
      MetricsRegistry::Global().GetCounter("service.slow_requests");
  slow->Increment();

  std::string entry = "{\"rid\": " + std::to_string(rid) +
                      ", \"cmd\": " + Quote(CommandLabel(line)) +
                      ", \"elapsed_ms\": " + FormatDouble(elapsed_ms) +
                      ", \"ok\": " + (response.ok ? "true" : "false");
  // Shed/degrade responses carry a machine-readable reason; surface it
  // so the slow log says WHY without a second lookup.
  if (!response.reason.empty()) {
    entry += ", \"reason\": " + Quote(response.reason);
  }
  // A slow debug gets its stage breakdown and cache hits.
  if (!response.debug_stages.empty()) {
    entry += ", \"stages\": " + response.debug_stages +
             ", \"cache_hits\": " + std::to_string(response.debug_cache_hits);
  }
  entry += "}";

  // One structured line per slow request on stderr (grep "SLOWREQ "),
  // plus the in-memory ring behind the `slowlog` command.
  std::fprintf(stderr, "SLOWREQ %s\n", entry.c_str());
  std::lock_guard<std::mutex> lock(slowlog_mu_);
  slowlog_.push_back(std::move(entry));
  while (slowlog_.size() > options_.telemetry.slow_log_entries) {
    slowlog_.pop_front();
  }
}

void Service::TrackInflightBegin(uint64_t rid, const std::string& line,
                                 double start_ms) {
  if (!options_.telemetry.watchdog_enabled || rid == 0) return;
  std::lock_guard<std::mutex> lock(inflight_mu_);
  InflightRequest& request = inflight_[rid];
  request.cmd = CommandLabel(line);
  request.start_ms = start_ms;
}

void Service::TrackInflightEnd(uint64_t rid) {
  if (!options_.telemetry.watchdog_enabled || rid == 0) return;
  std::lock_guard<std::mutex> lock(inflight_mu_);
  inflight_.erase(rid);
}

void Service::SetInflightDeadline(uint64_t rid, double deadline_ms) {
  if (!options_.telemetry.watchdog_enabled || rid == 0) return;
  std::lock_guard<std::mutex> lock(inflight_mu_);
  auto it = inflight_.find(rid);
  if (it != inflight_.end()) it->second.deadline_ms = deadline_ms;
}

void Service::StartTelemetryThreads() {
  const ServiceOptions::TelemetryOptions& t = options_.telemetry;
  if (!t.history_enabled && !t.watchdog_enabled) return;
  {
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    telemetry_stop_ = false;
  }
  if (t.history_enabled) sampler_ = std::thread(&Service::SamplerLoop, this);
  if (t.watchdog_enabled) watchdog_ = std::thread(&Service::WatchdogLoop, this);
}

void Service::StopTelemetryThreads() {
  {
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    telemetry_stop_ = true;
  }
  telemetry_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  if (watchdog_.joinable()) watchdog_.join();
}

void Service::SamplerLoop() {
  const auto interval = std::chrono::duration<double, std::milli>(
      options_.telemetry.sample_interval_ms);
  std::unique_lock<std::mutex> lock(telemetry_mu_);
  while (!telemetry_stop_) {
    lock.unlock();
    SampleOnce();
    lock.lock();
    telemetry_cv_.wait_for(lock, interval, [this] { return telemetry_stop_; });
  }
}

void Service::SampleOnce() {
  const double now_ms = MonotonicMillis();
  // One batch per tick: readers either see the whole tick or none of
  // it (a per-series Record loop would let `history` observe a tick
  // with some series advanced and the rest still pending).
  history_.RecordBatch(now_ms, MetricsRegistry::Global().SampleValues());
}

void Service::WatchdogLoop() {
  const auto interval = std::chrono::duration<double, std::milli>(
      options_.telemetry.watchdog_interval_ms);
  std::unique_lock<std::mutex> lock(telemetry_mu_);
  while (!telemetry_stop_) {
    lock.unlock();
    WatchdogScan();
    lock.lock();
    telemetry_cv_.wait_for(lock, interval, [this] { return telemetry_stop_; });
  }
}

void Service::WatchdogScan() {
  static MetricCounter* const stalled =
      MetricsRegistry::Global().GetCounter("watchdog.stalled_requests");
  static MetricCounter* const overruns =
      MetricsRegistry::Global().GetCounter("watchdog.deadline_overruns");
  static MetricCounter* const fsync_stalls =
      MetricsRegistry::Global().GetCounter("watchdog.fsync_stalls");
  static MetricCounter* const scans =
      MetricsRegistry::Global().GetCounter("watchdog.scans");
  scans->Increment();

  const double now_ms = MonotonicMillis();
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    for (auto& e : inflight_) {
      InflightRequest& request = e.second;
      if (!request.stall_alerted &&
          now_ms - request.start_ms >= options_.telemetry.stall_threshold_ms) {
        request.stall_alerted = true;  // alert once per request
        stalled->Increment();
        Tracer::Global().RecordInstant(
            "watchdog/stalled_request",
            "\"rid\":" + std::to_string(e.first) + ",\"cmd\":\"" +
                JsonEscape(request.cmd) + "\",\"running_ms\":" +
                FormatDouble(now_ms - request.start_ms));
      }
      if (!request.deadline_alerted && request.deadline_ms > 0.0 &&
          now_ms >
              request.deadline_ms + options_.telemetry.deadline_grace_ms) {
        request.deadline_alerted = true;
        overruns->Increment();
        Tracer::Global().RecordInstant(
            "watchdog/deadline_overrun",
            "\"rid\":" + std::to_string(e.first) + ",\"cmd\":\"" +
                JsonEscape(request.cmd) + "\",\"overrun_ms\":" +
                FormatDouble(now_ms - request.deadline_ms));
      }
    }
  }

  // Fsync probe: the WAL commit leader publishes when it entered fsync;
  // one alert per stuck episode (the start timestamp identifies it).
  const double fsync_since = FsyncInFlightSinceMs();
  if (fsync_since > 0.0 &&
      now_ms - fsync_since >= options_.telemetry.fsync_stall_ms) {
    if (fsync_alerted_since_ != fsync_since) {
      fsync_alerted_since_ = fsync_since;
      fsync_stalls->Increment();
      Tracer::Global().RecordInstant(
          "watchdog/fsync_stall",
          "\"stuck_ms\":" + FormatDouble(now_ms - fsync_since));
    }
  }
}

Service::Response Service::RunDebug(ManagedSession& ms) {
  DBW_TRACE_SPAN("service/debug");
  static MetricCounter* const retries =
      MetricsRegistry::Global().GetCounter("service.retries");
  // Per-stage latency lanes, sampled into the SLO history alongside the
  // end-to-end service.request_ms.
  static MetricHistogram* const preprocess_h =
      MetricsRegistry::Global().GetHistogram("explain.preprocess_ms");
  static MetricHistogram* const enumerate_h =
      MetricsRegistry::Global().GetHistogram("explain.enumerate_ms");
  static MetricHistogram* const predicates_h =
      MetricsRegistry::Global().GetHistogram("explain.predicates_ms");
  static MetricHistogram* const rank_h =
      MetricsRegistry::Global().GetHistogram("explain.rank_ms");
  static MetricHistogram* const total_h =
      MetricsRegistry::Global().GetHistogram("explain.total_ms");

  auto source = std::make_shared<CancellationSource>();
  {
    std::lock_guard<std::mutex> lock(ms.cancel_mu);
    if (ms.pending_cancel) {
      ms.pending_cancel = false;
      source->Cancel("cancelled before start");
    }
    ms.active_cancel = source;
  }

  if (ms.settings.deadline_ms > 0.0) {
    // Publish the promised deadline so the watchdog can distinguish
    // "slow" from "past its deadline and still running".
    SetInflightDeadline(CurrentRequestId(),
                        MonotonicMillis() + ms.settings.deadline_ms);
  }

  const RetryPolicy policy = CurrentRetryPolicy();
  size_t attempts = 1;
  auto exp = RetryTransient(
      policy,
      [&]() -> Result<Explanation> {
        ExecContext ctx;
        ctx.token = source->token();
        if (ms.settings.deadline_ms > 0.0) {
          // Fresh deadline per attempt: the budget is per-run, not
          // per-request, so a retried run gets its full allowance.
          ctx.deadline = Deadline::After(ms.settings.deadline_ms);
        }
        ctx.faults = faults_;
        ctx.budget = budget_;
        return ms.session.Debug(ctx);
      },
      &attempts);

  {
    std::lock_guard<std::mutex> lock(ms.cancel_mu);
    if (ms.active_cancel == source) ms.active_cancel.reset();
  }

  if (attempts > 1) retries->Increment(attempts - 1);
  if (!exp.ok()) return Error(exp.status());
  exp->profile.attempts = attempts;
  exp->profile.rid = CurrentRequestId();

  preprocess_h->Observe(exp->profile.preprocess_ms);
  enumerate_h->Observe(exp->profile.enumerate_ms);
  predicates_h->Observe(exp->profile.predicates_ms);
  rank_h->Observe(exp->profile.rank_ms);
  total_h->Observe(exp->profile.total_ms);

  Response r;
  if (exp->partial) {
    r.partial = true;
    r.reason = exp->partial_reason;
  }
  r.Add("explanation", ExplanationToJson(*exp, /*pretty=*/false));
  if (ms.settings.profile_enabled) {
    r.Add("profile", ExplainProfileToJson(exp->profile, /*pretty=*/false));
  }
  r.debug_cache_hits = exp->profile.match.cache_hits;
  r.debug_stages =
      "{\"preprocess_ms\": " + FormatDouble(exp->profile.preprocess_ms) +
      ", \"enumerate_ms\": " + FormatDouble(exp->profile.enumerate_ms) +
      ", \"predicates_ms\": " + FormatDouble(exp->profile.predicates_ms) +
      ", \"rank_ms\": " + FormatDouble(exp->profile.rank_ms) +
      ", \"total_ms\": " + FormatDouble(exp->profile.total_ms) + "}";
  return r;
}

// --- Admission queue ---

Status Service::Start() {
  if (options_.num_workers == 0) {
    return Status::InvalidArgument(
        "Start(): ServiceOptions.num_workers is 0 (synchronous mode)");
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (running_.load(std::memory_order_acquire)) return Status::OK();
    stopping_ = false;
    running_.store(true, std::memory_order_release);
  }
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(&Service::WorkerLoop, this);
  }
  return Status::OK();
}

void Service::Stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!running_.load(std::memory_order_acquire) && workers_.empty()) return;
    stopping_ = true;
    running_.store(false, std::memory_order_release);
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  std::lock_guard<std::mutex> lock(queue_mu_);
  stopping_ = false;
}

std::future<std::string> Service::Submit(std::string line) {
  static MetricCounter* const submitted =
      MetricsRegistry::Global().GetCounter("service.submitted");
  static MetricCounter* const shed =
      MetricsRegistry::Global().GetCounter("service.shed");
  static MetricGauge* const depth =
      MetricsRegistry::Global().GetGauge("service.queue_depth");

  submitted->Increment();
  // The id is assigned at ADMISSION, not execution: a shed response
  // carries a rid too, so even rejected requests are correlatable.
  const uint64_t rid = NextRequestId();
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();

  std::lock_guard<std::mutex> lock(queue_mu_);
  if (!running_.load(std::memory_order_acquire) || stopping_) {
    Response r = Error("service is not running");
    r.reason = "not_running";
    promise.set_value(r.Serialize(rid));
    return future;
  }
  if (queue_.size() >= options_.queue_capacity ||
      queued_bytes_ + line.size() > options_.queue_memory_watermark_bytes) {
    // Load shedding: reject fast and explicitly instead of queueing
    // unboundedly — the client gets a well-formed retryable error in
    // microseconds, not a timeout in seconds.
    shed->Increment();
    Response r = Error("overloaded: request queue is full");
    r.retryable = true;
    r.reason = "overloaded";
    r.retry_after_ms = options_.shed_retry_after_ms;
    promise.set_value(r.Serialize(rid));
    return future;
  }
  queued_bytes_ += line.size();
  queue_.push_back(QueuedRequest{std::move(line), rid, std::move(promise),
                                 std::chrono::steady_clock::now()});
  depth->Set(static_cast<int64_t>(queue_.size()));
  queue_cv_.notify_one();
  return future;
}

void Service::WorkerLoop() {
  static MetricGauge* const depth =
      MetricsRegistry::Global().GetGauge("service.queue_depth");
  static MetricHistogram* const request_ms =
      MetricsRegistry::Global().GetHistogram("service.request_ms");

  while (true) {
    QueuedRequest request;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        // stopping_ && empty: the queue has fully drained — every
        // accepted request got a response before shutdown.
        return;
      }
      request = std::move(queue_.front());
      queue_.pop_front();
      queued_bytes_ -= request.line.size();
      depth->Set(static_cast<int64_t>(queue_.size()));
    }
    std::string response = ExecuteWithRid(request.line, request.rid);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - request.enqueued)
            .count();
    request_ms->Observe(elapsed_ms);
    request.promise.set_value(std::move(response));
  }
}

}  // namespace dbwipes
