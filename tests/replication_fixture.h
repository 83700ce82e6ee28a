// Primary/follower fixture shared by the replication suites: a small
// deterministic table, WAL-backed primary and follower options, and
// polling helpers for stream catch-up and role changes.

#ifndef DBWIPES_TESTS_REPLICATION_FIXTURE_H_
#define DBWIPES_TESTS_REPLICATION_FIXTURE_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "dbwipes/common/random.h"
#include "dbwipes/core/service.h"

namespace dbwipes {
namespace repl_fixture {

inline std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" +
                          std::to_string(::getpid()) + "_repl_" + name;
  std::system(("rm -rf '" + dir + "'").c_str());
  return dir;
}

inline std::shared_ptr<Database> MakeDb() {
  Rng rng(53);
  auto t = std::make_shared<Table>(Schema{{"g", DataType::kInt64},
                                          {"tag", DataType::kString},
                                          {"v", DataType::kDouble}},
                                   "w");
  for (int g = 0; g < 4; ++g) {
    for (int i = 0; i < 40; ++i) {
      const bool bad = g >= 2 && i < 8;
      DBW_CHECK_OK(t->AppendRow({Value(static_cast<int64_t>(g)),
                                 Value(bad ? "bad" : "fine"),
                                 Value(bad ? rng.Normal(100, 2)
                                           : rng.Normal(10, 2))}));
    }
  }
  auto db = std::make_shared<Database>();
  db->RegisterTable(t);
  return db;
}

inline bool IsOk(const std::string& response) {
  return response.compare(0, 11, "{\"ok\": true") == 0;
}

inline long long JsonInt(const std::string& response,
                         const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = response.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << response;
  if (at == std::string::npos) return -1;
  return std::strtoll(response.c_str() + at + needle.size(), nullptr, 10);
}

inline bool JsonBool(const std::string& response, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = response.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << response;
  return at != std::string::npos &&
         response.compare(at + needle.size(), 4, "true") == 0;
}

inline bool WaitUntil(const std::function<bool()>& pred,
                      double timeout_ms = 15000) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<long>(timeout_ms));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// The deterministic tail of a debug response (ranked predicates).
inline std::string RankedPredicates(const std::string& debug_response) {
  const size_t at = debug_response.find("\"predicates\":[");
  EXPECT_NE(at, std::string::npos) << debug_response.substr(0, 200);
  return at == std::string::npos ? debug_response : debug_response.substr(at);
}

inline ServiceOptions PrimaryOptions(const std::string& dir,
                                     FaultInjector* faults = nullptr) {
  ServiceOptions options;
  options.wal.dir = dir;
  options.replication.listen_port = 0;  // ephemeral
  options.replication.faults = faults;
  return options;
}

inline ServiceOptions FollowerOptions(const std::string& wal_dir,
                                      int primary_port,
                                      FaultInjector* faults = nullptr) {
  ServiceOptions options;
  options.wal.dir = wal_dir;  // may be empty: memory-only follower
  options.replication.follow = "127.0.0.1:" + std::to_string(primary_port);
  options.replication.heartbeat_timeout_ms = 500.0;
  options.replication.reconnect.initial_backoff_ms = 5.0;
  options.replication.reconnect.max_backoff_ms = 50.0;
  options.replication.faults = faults;
  return options;
}

inline int PrimaryPort(Service& primary) {
  const std::string status = primary.Execute("replication status");
  EXPECT_TRUE(JsonBool(status, "listening")) << status;
  return static_cast<int>(JsonInt(status, "port"));
}

inline uint64_t PrimaryDurableLsn(Service& primary) {
  return static_cast<uint64_t>(
      JsonInt(primary.Execute("wal status"), "durable_lsn"));
}

inline bool FollowerCaughtUp(Service& follower, uint64_t lsn) {
  return static_cast<uint64_t>(JsonInt(follower.Execute("replication status"),
                                       "last_applied_lsn")) >= lsn;
}

/// Identical session/query setup on the primary; the stream must carry
/// all of it to the follower.
inline void RunPrimaryWorkload(Service& primary, int appends) {
  ASSERT_TRUE(IsOk(
      primary.Execute("sql SELECT g, avg(v) AS a FROM w GROUP BY g")));
  ASSERT_TRUE(IsOk(primary.Execute("select_range a 20 1e9")));
  ASSERT_TRUE(IsOk(primary.Execute("metric too_high 12")));
  ASSERT_TRUE(IsOk(primary.Execute("shards w 4")));
  for (int i = 0; i < appends; ++i) {
    ASSERT_TRUE(IsOk(primary.Execute(
        "append w 9 extra " + std::to_string(50.0 + i))));
  }
}

/// Turns primary `a` into a fenced stale primary: its follower `b` is
/// promoted (epoch 2) and then dials `a` (epoch 1), which refuses the
/// stream and fences itself. Afterwards `b` is a follower again (of a
/// primary that refuses it), so the pair holds both refusing roles.
inline void FenceOldPrimary(Service& a, int a_port, Service& b) {
  const std::string promoted = b.Execute("promote");
  ASSERT_TRUE(IsOk(promoted)) << promoted;
  ASSERT_TRUE(IsOk(b.Execute("replicate from 127.0.0.1:" +
                             std::to_string(a_port))));
  ASSERT_TRUE(WaitUntil([&] {
    return JsonBool(a.Execute("replication status"), "fenced");
  })) << a.Execute("replication status");
}

}  // namespace repl_fixture
}  // namespace dbwipes

#endif  // DBWIPES_TESTS_REPLICATION_FIXTURE_H_
