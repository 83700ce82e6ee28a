// Laws of the Service command table (Service::Commands()), checked by
// walking the table itself rather than a second list of commands:
//
//   - every kLogged variant that answers ok writes exactly one WAL
//     record, and a fresh Service recovered from that log reaches the
//     same session states, session list and shard layout;
//   - every kLogged and kNodeConfig variant is refused with not_primary
//     on a follower and with fenced on a fenced stale primary;
//   - every kRead variant is accepted on a follower;
//   - every kNodeConfig variant states why it is not logged, every
//     kLogged variant holds an ordering lock (WAL order == apply order),
//     and only session-scope commands take the session mutex.
//
// Each table entry needs a runnable example below; a new command fails
// EveryEntryHasARunnableExample until it is given one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "dbwipes/core/service.h"
#include "replication_fixture.h"

namespace dbwipes {
namespace {

using namespace repl_fixture;

std::string Key(const Service::Command& command,
                const Service::Command::Variant& variant) {
  return variant.sub == nullptr ? command.name
                                : std::string(command.name) + " " +
                                      variant.sub;
}

/// Per table entry: setup lines, then the line under test. Valid on
/// MakeDb()'s table `w` once RunPrimaryWorkload (query, brush, metric,
/// `shards w 4`) has run. `$DIR` is a scratch directory.
const std::map<std::string, std::vector<std::string>>& Examples() {
  static const std::map<std::string, std::vector<std::string>> examples = {
      {"replicate", {"replicate status"}},
      {"promote", {"promote"}},
      {"replication", {"replication status"}},
      {"ping", {"ping"}},
      {"stats", {"stats"}},
      {"history", {"history"}},
      {"slowlog", {"slowlog"}},
      {"trace", {"trace off"}},
      {"wal on", {"wal on $DIR/other_wal"}},
      {"wal off", {"wal off"}},
      {"wal checkpoint", {"wal checkpoint"}},
      {"wal status", {"wal status"}},
      {"snapshot save", {"snapshot save $DIR/law.dbw"}},
      {"snapshot load", {"snapshot load $DIR/law.dbw"}},
      {"retry", {"retry 3 1"}},
      {"session list", {"session list"}},
      {"session drop", {"@doomed set_deadline 5", "session drop doomed"}},
      {"session evict", {"session evict 3600000"}},
      {"shards", {"shards w 2"}},
      {"append", {"append w 9 \"extra row\" 42.5"}},
      {"cancel", {"@reader cancel"}},
      {"sql", {"sql SELECT g, avg(v) AS a FROM w GROUP BY g"}},
      {"result", {"result"}},
      {"select_range", {"select_range a 20 1e9"}},
      {"select_groups", {"select_groups 2 3"}},
      {"inputs_where", {"inputs_where tag = 'bad'"}},
      {"metrics", {"metrics"}},
      {"metric", {"metric too_high 12"}},
      {"debug", {"debug"}},
      {"set_deadline", {"set_deadline 60000"}},
      {"profile", {"profile off"}},
      {"clean", {"select_range a 20 1e9", "debug", "clean 0"}},
      {"clean_where", {"clean_where tag = 'bad'"}},
      {"undo", {"clean_where v > 1000", "undo"}},
      {"reset", {"reset"}},
      {"state", {"state"}},
  };
  return examples;
}

std::string Expand(std::string line, const std::string& dir) {
  const size_t at = line.find("$DIR");
  if (at != std::string::npos) line.replace(at, 4, dir);
  return line;
}

/// The line under test for a variant.
std::string ExampleLine(const Service::Command& command,
                        const Service::Command::Variant& variant,
                        const std::string& dir) {
  return Expand(Examples().at(Key(command, variant)).back(), dir);
}

uint64_t NextLsn(Service& service) {
  return static_cast<uint64_t>(
      JsonInt(service.Execute("wal status"), "next_lsn"));
}

/// What recovery must reproduce: every session's `state`, the session
/// names, and each sharded table's shard count and row split.
std::string World(Service& service) {
  std::string world;
  const std::string list = service.Execute("session list");
  for (size_t at = 0;
       (at = list.find("\"name\": \"", at)) != std::string::npos;) {
    at += 9;
    const std::string name = list.substr(at, list.find('"', at) - at);
    const std::string state = service.Execute("@" + name + " state");
    world += name + ": " + state.substr(state.find(", \"has_result\"")) + "\n";
  }
  const std::string stats = service.Execute("stats");
  const size_t shards = stats.rfind("\"shards\": {");
  const size_t cache = stats.find(", \"cached_clauses\"", shards);
  EXPECT_NE(cache, std::string::npos) << stats;
  world += stats.substr(shards, cache - shards) + "\n";
  return world;
}

TEST(ServiceCommandTableTest, EveryEntryHasARunnableExample) {
  for (const Service::Command& command : Service::Commands()) {
    ASSERT_FALSE(command.variants.empty()) << command.name;
    for (const Service::Command::Variant& variant : command.variants) {
      EXPECT_TRUE(Examples().count(Key(command, variant)))
          << "no example for '" << Key(command, variant) << "'";
    }
  }
}

TEST(ServiceCommandTableTest, NodeConfigStatesAReasonAndLoggedIsOrdered) {
  for (const Service::Command& command : Service::Commands()) {
    for (const Service::Command::Variant& variant : command.variants) {
      const std::string key = Key(command, variant);
      if (variant.kind == CommandKind::kNodeConfig) {
        EXPECT_NE(std::string(variant.reason), "") << key;
      }
      if (variant.kind == CommandKind::kLogged) {
        EXPECT_TRUE(variant.lock == CommandLock::kSession ||
                    variant.lock == CommandLock::kGateOrdered)
            << key << " is logged without an ordering lock";
      }
      // The session mutex needs a resolved session.
      if (variant.lock == CommandLock::kSession) {
        EXPECT_TRUE(command.session_scope) << key;
      }
    }
  }
}

TEST(ServiceCommandTableTest, LoggedVariantsWriteOneRecordAndReplay) {
  const std::string dir = TempDir("table_law");
  ServiceOptions options;
  options.wal.dir = dir;
  options.wal.checkpoint_bytes = 0;  // every record stays in the log
  std::string before_world;
  size_t logged = 0;
  {
    Service primary(MakeDb(), options);
    RunPrimaryWorkload(primary, 2);
    for (const Service::Command& command : Service::Commands()) {
      for (const Service::Command::Variant& variant : command.variants) {
        if (variant.kind != CommandKind::kLogged) continue;
        const std::string key = Key(command, variant);
        const std::vector<std::string>& example = Examples().at(key);
        for (size_t i = 0; i + 1 < example.size(); ++i) {
          ASSERT_TRUE(IsOk(primary.Execute(Expand(example[i], dir))))
              << key << " setup: " << example[i];
        }
        const uint64_t before = NextLsn(primary);
        const std::string response =
            primary.Execute(ExampleLine(command, variant, dir));
        ASSERT_TRUE(IsOk(response)) << key << ": " << response;
        EXPECT_EQ(NextLsn(primary), before + 1)
            << key << " must write exactly one WAL record";
        ++logged;
      }
    }
    before_world = World(primary);
  }
  EXPECT_GE(logged, 10u);

  Service recovered(MakeDb(), options);
  const std::string status = recovered.Execute("wal status");
  EXPECT_EQ(JsonInt(status, "replay_errors"), 0) << status;
  EXPECT_EQ(World(recovered), before_world);
}

TEST(ServiceCommandTableTest, PrimaryOnlyIsRefusedOffPrimaryReadsAreNot) {
  const std::string dir = TempDir("table_roles");
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  Service a(MakeDb(), PrimaryOptions(dir + "/a"));
  const int port = PrimaryPort(a);
  RunPrimaryWorkload(a, 2);
  Service b(MakeDb(), FollowerOptions(dir + "/b", port));
  const uint64_t durable = PrimaryDurableLsn(a);
  ASSERT_TRUE(WaitUntil([&] { return FollowerCaughtUp(b, durable); }));

  auto refuses = [&](Service& node, const std::string& reason,
                     const char* role) {
    for (const Service::Command& command : Service::Commands()) {
      for (const Service::Command::Variant& variant : command.variants) {
        if (!CommandKindIsPrimaryOnly(variant.kind)) continue;
        const std::string response =
            node.Execute(ExampleLine(command, variant, dir));
        EXPECT_NE(response.find("\"reason\": \"" + reason + "\""),
                  std::string::npos)
            << role << " accepted '" << Key(command, variant)
            << "': " << response;
      }
    }
  };
  refuses(b, "not_primary", "follower");
  FenceOldPrimary(a, port, b);  // b follows a again; a is fenced
  refuses(a, "fenced", "fenced primary");

  // Reads on the follower; `promote` last, since it ends the role.
  std::vector<std::string> reads;
  for (const Service::Command& command : Service::Commands()) {
    for (const Service::Command::Variant& variant : command.variants) {
      if (variant.kind == CommandKind::kRead) {
        reads.push_back(ExampleLine(command, variant, dir));
      }
    }
  }
  std::stable_partition(reads.begin(), reads.end(), [](const std::string& l) {
    return l != "promote";
  });
  for (const std::string& line : reads) {
    const std::string response = b.Execute(line);
    EXPECT_EQ(response.find("\"reason\": \"not_primary\""), std::string::npos)
        << "follower refused '" << line << "': " << response;
  }
}

}  // namespace
}  // namespace dbwipes
