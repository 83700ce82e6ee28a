// Minimal JSON reader for the benchmark's output checks: every Service
// response is parsed with it, so a malformed response counts as failed.
#ifndef PERFBENCH_JSON_READER_H_
#define PERFBENCH_JSON_READER_H_

#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// A string's value, or a number's literal text (so two responses can
  /// be compared digit for digit).
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  /// Member lookup; a missing key (or a non-object) yields null.
  const Json& operator[](std::string_view key) const {
    static const Json kNull;
    if (kind != Kind::kObject) return kNull;
    for (const auto& [k, v] : fields) {
      if (k == key) return v;
    }
    return kNull;
  }
  bool Has(std::string_view key) const {
    if (kind != Kind::kObject) return false;
    for (const auto& field : fields) {
      if (field.first == key) return true;
    }
    return false;
  }
  bool IsTrue() const { return kind == Kind::kBool && boolean; }
  double Num(double fallback = 0.0) const {
    return kind == Kind::kNumber ? number : fallback;
  }
};

class JsonParser {
 public:
  static std::optional<Json> Parse(std::string_view text) {
    JsonParser p(text);
    Json out;
    if (!p.Value(&out, 0)) return std::nullopt;
    p.SkipSpace();
    if (p.pos_ != text.size()) return std::nullopt;
    return out;
  }

 private:
  static constexpr int kMaxDepth = 64;

  explicit JsonParser(std::string_view text) : s_(text) {}

  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Value(Json* out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipSpace();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return Object(out, depth);
    if (c == '[') return Array(out, depth);
    if (c == '"') {
      out->kind = Json::Kind::kString;
      return String(&out->text);
    }
    if (Literal("true")) {
      out->kind = Json::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = Json::Kind::kBool;
      return true;
    }
    if (Literal("null")) return true;
    return Number(out);
  }

  bool Object(Json* out, int depth) {
    out->kind = Json::Kind::kObject;
    ++pos_;  // '{'
    if (Eat('}')) return true;
    do {
      SkipSpace();
      std::string key;
      if (pos_ >= s_.size() || s_[pos_] != '"' || !String(&key)) return false;
      if (!Eat(':')) return false;
      Json value;
      if (!Value(&value, depth + 1)) return false;
      out->fields.emplace_back(std::move(key), std::move(value));
    } while (Eat(','));
    return Eat('}');
  }

  bool Array(Json* out, int depth) {
    out->kind = Json::Kind::kArray;
    ++pos_;  // '['
    if (Eat(']')) return true;
    do {
      Json value;
      if (!Value(&value, depth + 1)) return false;
      out->items.push_back(std::move(value));
    } while (Eat(','));
    return Eat(']');
  }

  bool String(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          const std::string hex(s_.substr(pos_, 4));
          char* end = nullptr;
          const unsigned long cp = std::strtoul(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) return false;
          pos_ += 4;
          // The Service escapes only control characters this way.
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool Number(Json* out) {
    const size_t start = pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return false;
    out->kind = Json::Kind::kNumber;
    out->text = std::string(s_.substr(start, pos_ - start));
    char* end = nullptr;
    out->number = std::strtod(out->text.c_str(), &end);
    return end == out->text.c_str() + out->text.size();
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_JSON_READER_H_
