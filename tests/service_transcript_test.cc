// Golden wire transcript of the Service command surface: every command
// and subcommand, every usage error, the admission-queue rejections of
// Submit, and the role refusals of a follower and a fenced primary, run
// against a small generated FEC table and compared byte for byte with
// tests/golden/service_transcript.txt.
//
// Only request ids, the values of keys ending in `_ms` and the debug
// profile are masked (they vary run to run or machine to machine);
// `stats` and `history` keep just their envelope. The WAL directory is
// spelled `$WALDIR` in the transcript. A mismatch writes the actual
// transcript next to the test's temp files and names it in the
// failure, so an intended wire change is reviewed as a diff of the
// golden file.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dbwipes/core/service.h"
#include "dbwipes/datagen/fec_generator.h"
#include "replication_fixture.h"

namespace dbwipes {
namespace {

using namespace repl_fixture;

#ifndef DBWIPES_GOLDEN_DIR
#error "DBWIPES_GOLDEN_DIR must point at tests/golden"
#endif

/// Copies a JSON response, replacing with `#` every scalar under a
/// `rid` key or a key ending in `_ms` (nested objects and arrays
/// included), and the whole `profile` object — thread-pool, SIMD-tier
/// and cache counters describe the machine, not the wire format.
class Masker {
 public:
  static std::string Mask(const std::string& json) {
    Masker m(json);
    m.Value(false);
    m.out_ += json.substr(std::min(m.i_, json.size()));
    return m.out_;
  }

 private:
  explicit Masker(const std::string& s) : s_(s) {}

  bool More() const { return i_ < s_.size(); }
  void Space() {
    while (More() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      out_ += s_[i_++];
    }
  }
  std::string String() {
    const size_t start = i_++;
    while (More() && s_[i_] != '"') i_ += s_[i_] == '\\' ? 2 : 1;
    ++i_;
    out_ += s_.substr(start, i_ - start);
    return s_.substr(start + 1, i_ - start - 2);
  }
  void SkipValue() {
    int depth = 0;
    do {
      if (s_[i_] == '"') {
        const size_t keep = out_.size();
        String();
        out_.resize(keep);
        continue;
      }
      if (s_[i_] == '{' || s_[i_] == '[') ++depth;
      if (s_[i_] == '}' || s_[i_] == ']') --depth;
      ++i_;
    } while (More() && depth > 0);
  }
  void Value(bool mask) {
    Space();
    if (!More()) return;
    const char c = s_[i_];
    if (c == '{' || c == '[') {
      out_ += s_[i_++];
      const char close = c == '{' ? '}' : ']';
      Space();
      while (More() && s_[i_] != close) {
        bool member_mask = mask;
        if (c == '{') {
          const std::string key = String();
          Space();
          out_ += s_[i_++];  // ':'
          Space();
          member_mask |= key == "rid" ||
                         (key.size() > 3 &&
                          key.compare(key.size() - 3, 3, "_ms") == 0);
          if (key == "profile" && s_[i_] == '{') {
            SkipValue();
            out_ += "…";
            Space();
            if (More() && s_[i_] == ',') out_ += s_[i_++];
            Space();
            continue;
          }
        }
        Value(member_mask);
        Space();
        if (More() && s_[i_] == ',') out_ += s_[i_++];
        Space();
      }
      if (More()) out_ += s_[i_++];
    } else if (c == '"') {
      String();
    } else {
      const size_t start = i_;
      while (More() && s_[i_] != ',' && s_[i_] != '}' && s_[i_] != ']' &&
             !std::isspace(static_cast<unsigned char>(s_[i_]))) {
        ++i_;
      }
      out_ += mask ? std::string("#") : s_.substr(start, i_ - start);
    }
  }

  const std::string& s_;
  size_t i_ = 0;
  std::string out_;
};

/// `{"ok": true, "rid": #, "<first payload key>": …}`: the envelope of a
/// response whose payload is live process state.
std::string Envelope(const std::string& masked) {
  const size_t rid = masked.find("\"rid\": #");
  if (rid == std::string::npos) return masked;
  const size_t payload = masked.find(", \"", rid);
  if (payload == std::string::npos) return masked;
  const size_t key_end = masked.find("\": ", payload + 3);
  if (key_end == std::string::npos) return masked;
  return masked.substr(0, key_end + 3) + "…}";
}

class Transcript {
 public:
  explicit Transcript(std::string wal_dir) : wal_dir_(std::move(wal_dir)) {}

  /// Runs `line` (with `$WALDIR` expanded) and records the response.
  void Run(Service& service, const std::string& line) {
    Record(line, service.Execute(Expand(line)));
  }

  void Record(const std::string& label, const std::string& response) {
    std::string masked = Masker::Mask(Unexpand(response));
    const std::string cmd = label.substr(0, label.find(' '));
    if (cmd == "stats" || cmd == "history") masked = Envelope(masked);
    text_ += "> " + label + "\n" + masked + "\n";
  }

  const std::string& text() const { return text_; }

 private:
  std::string Expand(std::string line) const {
    for (size_t at; (at = line.find("$WALDIR")) != std::string::npos;) {
      line.replace(at, 7, wal_dir_);
    }
    return line;
  }
  std::string Unexpand(std::string text) const {
    for (size_t at; (at = text.find(wal_dir_)) != std::string::npos;) {
      text.replace(at, wal_dir_.size(), "$WALDIR");
    }
    return text;
  }

  std::string wal_dir_;
  std::string text_;
};

std::shared_ptr<Database> FecDb() {
  FecOptions gen;
  gen.num_donations = 3000;
  gen.num_days = 60;
  gen.num_reattributions = 40;
  gen.reattribution_day = 40;
  gen.reattribution_spread = 2.0;
  auto data = GenerateFecDataset(gen);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  auto db = std::make_shared<Database>();
  db->RegisterTable(data->table);
  return db;
}

// The script: every command and subcommand, each usage error, and the
// analyst's Figure 7 gesture (query, brush, D', metric, debug, clean).
const char* const kScript[] = {
    "",
    "bogus",
    "@bad/name state",
    "@lonely",
    "result",
    "state",
    "sql",
    "sql SELECT nosuch FROM donations",
    "sql SELECT day, sum(amount) AS total FROM donations WHERE candidate = "
    "'MCCAIN' GROUP BY day",
    "result",
    "select_range",
    "select_range nosuch 0 1",
    "select_groups",
    "select_groups 0 1 2",
    "select_groups 100000",
    "select_range total -1000000000 -1",
    "inputs_where",
    "inputs_where amount < 0",
    "metrics",
    "metrics 0",
    "metrics 9",
    "metric",
    "metric bogus 0",
    "metric too_low 0 9",
    "metric too_low 0 0",
    "set_deadline",
    "set_deadline 0",
    "set_deadline 600000",
    "debug",
    "clean",
    "clean 99999",
    "clean 0",
    "state",
    "undo",
    "undo",
    "clean_where",
    "clean_where memo = 'REATTRIBUTION TO SPOUSE'",
    "clean_where (((",
    "reset",
    "cancel",
    "profile",
    "profile on",
    "profile off",
    "profile bogus",
    "trace",
    "trace on",
    "trace off",
    "ping",
    "ping 1",
    "retry",
    "retry off",
    "retry 0",
    "retry x",
    "retry 2 -1",
    "retry 3 5",
    "@s2 sql SELECT state, count(*) AS n FROM donations GROUP BY state",
    "@s2 state",
    "@s2 set_deadline 5",
    "session",
    "session list",
    "session bogus",
    "session drop",
    "session drop main",
    "session drop nosuch",
    "session drop s2",
    "session evict",
    "session evict 0",
    "session evict 3600000",
    "shards",
    "shards donations x",
    "shards donations 0",
    "shards donations 257",
    "shards nosuch 2",
    "append donations MCCAIN CA FRESNO ENGINEER -5.5 59 VERIFYROW",
    "shards donations 4",
    "append",
    "append nosuch 1",
    "append donations MCCAIN CA",
    "append donations MCCAIN CA FRESNO ENGINEER x 59 VERIFYROW",
    "append donations MCCAIN CA FRESNO ENGINEER -5.5 5.5 VERIFYROW",
    "append donations MCCAIN CA FRESNO ENGINEER -5.5 59 VERIFYROW extra",
    "append donations MCCAIN CA FRESNO ENGINEER -5.5 59 VERIFYROW",
    "append donations MCCAIN CA null ENGINEER null 59 null",
    "select_range total -1000000000 -1",
    "debug",
    "debug",
    "snapshot",
    "snapshot bogus x",
    "snapshot save $WALDIR/missing/snap.dbw",
    "snapshot load $WALDIR/missing.dbw",
    "wal",
    "wal bogus",
    "wal status",
    "wal checkpoint",
    "wal off",
    "wal on",
    "wal on $WALDIR",
    "wal on $WALDIR",
    "wal status",
    "sql SELECT day, sum(amount) AS total FROM donations WHERE candidate = "
    "'MCCAIN' GROUP BY day",
    "select_range total -1000000000 -1",
    "wal checkpoint",
    "wal status",
    "snapshot save $WALDIR/saved.dbw",
    "snapshot load $WALDIR/saved.dbw",
    "state",
    "wal off",
    "wal status",
    "replication",
    "replication bogus",
    "replication status",
    "replicate",
    "replicate bogus",
    "replicate listen",
    "replicate listen 0",
    "replicate from",
    "replicate from not-an-address",
    "replicate stop",
    "promote",
    "history",
    "history service.commands",
    "stats",
    "slowlog",
    "@s3 result",
    "session list",
};

TEST(ServiceTranscriptTest, WireBytesMatchTheGoldenTranscript) {
  const std::string wal_dir = TempDir("transcript_wal");
  ASSERT_EQ(std::system(("mkdir -p '" + wal_dir + "'").c_str()), 0);
  Transcript t(wal_dir);

  {
    ServiceOptions options;
    options.telemetry.slow_ms = 1e12;  // slowlog stays empty
    Service service(FecDb(), options);
    for (const char* line : kScript) t.Run(service, line);
  }

  // Submit's admission rejections: not running, then shed.
  {
    ServiceOptions options;
    options.num_workers = 1;
    Service service(FecDb(), options);
    t.Record("[submit, not started] ping", service.Submit("ping").get());
  }
  {
    ServiceOptions options;
    options.num_workers = 1;
    options.queue_capacity = 0;
    Service service(FecDb(), options);
    ASSERT_TRUE(service.Start().ok());
    t.Record("[submit, queue full] ping", service.Submit("ping").get());
    service.Stop();
  }

  // Role refusals: a follower (retryable not_primary) and a fenced stale
  // primary (terminal fenced).
  {
    Service a(MakeDb(), PrimaryOptions(TempDir("transcript_a")));
    const int port = PrimaryPort(a);
    RunPrimaryWorkload(a, 2);
    Service b(MakeDb(), FollowerOptions(TempDir("transcript_b"), port));
    const uint64_t durable = PrimaryDurableLsn(a);
    ASSERT_TRUE(WaitUntil([&] { return FollowerCaughtUp(b, durable); }));
    t.Record("[follower] append w 9 extra 1.0",
             b.Execute("append w 9 extra 1.0"));
    FenceOldPrimary(a, port, b);
    t.Record("[fenced primary] append w 9 extra 1.0",
             a.Execute("append w 9 extra 1.0"));
  }

  const std::string golden_path =
      std::string(DBWIPES_GOLDEN_DIR) + "/service_transcript.txt";
  std::ifstream golden_in(golden_path);
  std::stringstream golden;
  golden << golden_in.rdbuf();
  if (golden.str() != t.text()) {
    const std::string actual_path =
        ::testing::TempDir() + "/service_transcript.actual.txt";
    std::ofstream(actual_path) << t.text();
    // Point at the first differing line for a readable failure.
    std::istringstream want(golden.str()), got(t.text());
    std::string w, g;
    int line = 0;
    while (true) {
      ++line;
      const bool more_w = static_cast<bool>(std::getline(want, w));
      const bool more_g = static_cast<bool>(std::getline(got, g));
      if (!more_w && !more_g) break;
      if (w != g || more_w != more_g) {
        ADD_FAILURE() << "transcript differs at line " << line
                      << "\n  golden: " << (more_w ? w : "<end>")
                      << "\n  actual: " << (more_g ? g : "<end>")
                      << "\nfull actual transcript: " << actual_path;
        break;
      }
      w.clear();
      g.clear();
    }
  }
}

}  // namespace
}  // namespace dbwipes
