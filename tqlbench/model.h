// The benchmark's own model of the database and its answer checkers.
//
// Everything here is plain containers: no engine code is shared, so a
// wrong answer from the engine cannot be "confirmed" by the same bug in
// the checker. Answers are compared as sets of rows, intervals or
// segments (pointwise over instants), never byte for byte.
#ifndef TQLBENCH_MODEL_H_
#define TQLBENCH_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tqlbench {

// A piecewise-constant function of the instant: each entry holds from its
// start up to the next entry's start (the last one holds forever).
// Instants before the first start are undefined.
class StepFn {
 public:
  std::optional<int64_t> At(int64_t t) const {
    auto it = steps_.upper_bound(t);
    if (it == steps_.begin()) return std::nullopt;
    return std::prev(it)->second;
  }
  // The value from `t` on (a current-time update, a migration).
  void SetFrom(int64_t t, int64_t v) {
    steps_.erase(steps_.lower_bound(t), steps_.end());
    steps_[t] = v;
  }
  // The value on [a,b] only (a valid-time correction).
  void SetRange(int64_t a, int64_t b, int64_t v) {
    std::optional<int64_t> after = At(b + 1);
    steps_.erase(steps_.lower_bound(a), steps_.upper_bound(b + 1));
    steps_[a] = v;
    if (after.has_value()) steps_[b + 1] = *after;
  }
  std::optional<int64_t> Last() const {
    if (steps_.empty()) return std::nullopt;
    return steps_.rbegin()->second;
  }

 private:
  std::map<int64_t, int64_t> steps_;
};

enum ClassId : int64_t { kEmployee = 1, kManager = 2 };

struct ObjectModel {
  std::string oid;  // "i<n>"
  std::string name;
  int64_t birthyear = 0;
  std::string office;
  int64_t created = 0;
  StepFn salary;
  StepFn cls;  // ClassId per instant
  std::optional<int64_t> dependents;  // current value, managers only
};

// --- answer parsing ----------------------------------------------------------

inline std::vector<std::string> SplitRows(std::string_view answer) {
  std::vector<std::string> rows;
  if (answer == "(no results)") return rows;
  size_t start = 0;
  while (start <= answer.size()) {
    size_t nl = answer.find('\n', start);
    if (nl == std::string_view::npos) nl = answer.size();
    if (nl > start) rows.emplace_back(answer.substr(start, nl - start));
    start = nl + 1;
  }
  return rows;
}

inline std::multiset<std::string> RowSet(std::string_view answer) {
  std::vector<std::string> rows = SplitRows(answer);
  return std::multiset<std::string>(rows.begin(), rows.end());
}

// Parses an instant: a number, or "now" (resolved to `now`).
inline bool ParseInstant(std::string_view s, int64_t now, int64_t* out) {
  if (s == "now") {
    *out = now;
    return true;
  }
  if (s.empty()) return false;
  int64_t v = 0;
  size_t i = 0;
  bool neg = false;
  if (s[0] == '-') {
    neg = true;
    i = 1;
  }
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    v = v * 10 + (s[i] - '0');
  }
  *out = neg ? -v : v;
  return true;
}

struct Segment {
  int64_t a = 0, b = 0, v = 0;
};

// "{<[0,1],1000>,<[2,4],1200>,<[10,now],1500>}" -> segments.
inline bool ParseHistory(std::string_view s, int64_t now,
                         std::vector<Segment>* out) {
  out->clear();
  if (s.size() < 2 || s.front() != '{' || s.back() != '}') return false;
  size_t i = 1;
  while (i < s.size() - 1) {
    if (s[i] == ',') {
      ++i;
      continue;
    }
    if (s.compare(i, 2, "<[") != 0) return false;
    size_t comma = s.find(',', i + 2);
    size_t close = s.find("],", i + 2);
    size_t end = s.find('>', i + 2);
    if (comma == s.npos || close == s.npos || end == s.npos) return false;
    Segment seg;
    if (!ParseInstant(s.substr(i + 2, comma - i - 2), now, &seg.a) ||
        !ParseInstant(s.substr(comma + 1, close - comma - 1), now, &seg.b) ||
        !ParseInstant(s.substr(close + 2, end - close - 2), now, &seg.v)) {
      return false;
    }
    out->push_back(seg);
    i = end + 1;
  }
  return true;
}

// "{[2,4],[10,15]}" -> the set of instants it covers.
inline bool ParseIntervalSet(std::string_view s, int64_t now,
                             std::set<int64_t>* out) {
  out->clear();
  if (s.size() < 2 || s.front() != '{' || s.back() != '}') return false;
  size_t i = 1;
  while (i < s.size() - 1) {
    if (s[i] == ',') {
      ++i;
      continue;
    }
    if (s[i] != '[') return false;
    size_t comma = s.find(',', i);
    size_t close = s.find(']', i);
    if (comma == s.npos || close == s.npos || comma > close) return false;
    int64_t a = 0, b = 0;
    if (!ParseInstant(s.substr(i + 1, comma - i - 1), now, &a) ||
        !ParseInstant(s.substr(comma + 1, close - comma - 1), now, &b) ||
        b < a || b - a > 1'000'000) {
      return false;
    }
    for (int64_t t = a; t <= b; ++t) out->insert(t);
    i = close + 1;
  }
  return true;
}

// "(birthyear:1972,name:'e3',office:'NEW',salary:10)" -> field map.
// Field values in this benchmark never contain ',' or ':'.
inline bool ParseSnapshot(std::string_view s,
                          std::map<std::string, std::string>* out) {
  out->clear();
  if (s.size() < 2 || s.front() != '(' || s.back() != ')') return false;
  std::string_view body = s.substr(1, s.size() - 2);
  size_t i = 0;
  while (i < body.size()) {
    size_t comma = body.find(',', i);
    if (comma == body.npos) comma = body.size();
    std::string_view field = body.substr(i, comma - i);
    size_t colon = field.find(':');
    if (colon == field.npos) return false;
    (*out)[std::string(field.substr(0, colon))] =
        std::string(field.substr(colon + 1));
    i = comma + 1;
  }
  return true;
}

inline std::string Quote(const std::string& s) { return "'" + s + "'"; }

// Checks a `history o.salary` answer against the model pointwise over
// [from, to] (instants the model knows exactly).
inline bool HistoryMatches(std::string_view answer, const StepFn& expected,
                           int64_t from, int64_t to, int64_t now,
                           std::string* why) {
  std::vector<Segment> segs;
  if (!ParseHistory(answer, now, &segs)) {
    *why = "unparsable history";
    return false;
  }
  for (int64_t t = from; t <= to; ++t) {
    std::optional<int64_t> g;
    for (const Segment& s : segs) {
      if (s.a <= t && t <= s.b) g = s.v;
    }
    if (g != expected.At(t)) {
      *why = "history differs at t=" + std::to_string(t);
      return false;
    }
  }
  return true;
}

}  // namespace tqlbench

#endif  // TQLBENCH_MODEL_H_
