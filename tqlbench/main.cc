// tqlbench: the end-to-end TQL serving benchmark.
//
//   tqlbench --workload <dashboard_reads|durable_writes|restart_replay>
//            --seed <n> --seconds <s> --trace <0|1> [--work <dir>]
//            [--wrong-answer]   (self-test: one expected answer is wrong)
//   tqlbench --sizing [--work <dir>]
//
// The serving stack is assembled the way tools/tchimera_serve.cpp does
// it: recovery (snapshot, definitions, journals, audit) -> a
// GroupCommitJournal with real fdatasync -> Engine -> an in-process
// Server, driven over loopback by two closed-loop Clients, one
// connection per thread, all in one process pinned to one CPU. Every
// answer is checked against the benchmark's own model (model.h). The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"};
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones. Any failed check makes the exit code non-zero. See README.md.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/db/database.h"
#include "core/db/versioned_db.h"
#include "model.h"
#include "query/ast.h"
#include "query/interpreter.h"
#include "query/lower.h"
#include "query/parser.h"
#include "query/session.h"
#include "query/vm.h"
#include "server/client.h"
#include "server/net.h"
#include "server/server.h"
#include "storage/group_commit.h"
#include "storage/journal.h"
#include "storage/recovery.h"
#include "storage/replication.h"
#include "storage/serializer.h"
#include "trace.h"
#include "workload.h"

#ifndef TQLBENCH_BUILD_TYPE
#define TQLBENCH_BUILD_TYPE "unknown"
#endif

namespace tqlbench {
namespace {

namespace fs = std::filesystem;
using tchimera::Client;
using tchimera::Database;
using tchimera::Engine;
using tchimera::GroupCommitJournal;
using tchimera::Result;
using tchimera::Server;
using tchimera::ServerOptions;
using tchimera::Session;
using tchimera::Status;

// Setups per run; setup_s and the setup-phase layer timings are medians.
constexpr int kSetups = 3;
// Cold replica catch-ups and cold recoveries after a served set-up;
// replica_catchup_s and recovery_s are their medians.
constexpr int kColdRepeats = 9;
// The measured window is cut into slices of this length; traced runs
// alternate traced and untraced slices.
constexpr int64_t kSliceNs = 100'000'000;
// Client threads of the served workloads; the server runs as many
// workers.
constexpr int kClients = 2;
// The CPU the process is pinned to (PinToOneCpu), or -1.
int g_cpu = -1;

// --- small statistics ---------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

struct Percentiles {
  double p50_us = 0, p99_us = 0;
  size_t n = 0;
};

Percentiles Pct(std::vector<int64_t> ns) {
  Percentiles p;
  p.n = ns.size();
  if (ns.empty()) return p;
  std::sort(ns.begin(), ns.end());
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(ns.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, ns.size() - 1);
    const double w = pos - static_cast<double>(lo);
    return ((1 - w) * static_cast<double>(ns[lo]) +
            w * static_cast<double>(ns[hi])) / 1e3;
  };
  p.p50_us = at(0.50);
  p.p99_us = at(0.99);
  return p;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Micros(int64_t ns) { return static_cast<double>(ns) / 1e3; }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  uint64_t n = fs::file_size(path, ec);
  return ec ? 0 : n;
}

// --- the run report -----------------------------------------------------------

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  size_t failures_printed = 0;

  void Fail(const std::string& why) {
    correct = false;
    if (failures_printed++ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  std::string Json() const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, vu] : metrics) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(vu.first) ? vu.first : 0.0);
      if (!first) out += ", ";
      first = false;
      out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + vu.second + "\"}";
    }
    return out + "}}";
  }
};

// --- expected answers ---------------------------------------------------------

struct Expect {
  enum class Kind { kRows, kInstants, kHistory, kSnapshot };
  Kind kind = Kind::kRows;
  std::multiset<std::string> rows;
  std::set<int64_t> instants;
  StepFn history;
  int64_t from = 0, to = 0;  // kHistory: instants checked
  std::map<std::string, std::string> fields;
};

bool Matches(const Expect& e, const std::string& answer, int64_t now,
             std::string* why) {
  switch (e.kind) {
    case Expect::Kind::kRows:
      if (RowSet(answer) == e.rows) return true;
      *why = "rows differ (" + std::to_string(SplitRows(answer).size()) +
             " vs " + std::to_string(e.rows.size()) + " expected)";
      return false;
    case Expect::Kind::kInstants: {
      std::set<int64_t> got;
      if (ParseIntervalSet(answer, now, &got) && got == e.instants) return true;
      *why = "instants differ: " + answer;
      return false;
    }
    case Expect::Kind::kHistory:
      return HistoryMatches(answer, e.history, e.from, e.to, now, why);
    case Expect::Kind::kSnapshot: {
      std::map<std::string, std::string> got;
      if (ParseSnapshot(answer, &got) && got == e.fields) return true;
      *why = "snapshot differs: " + answer;
      return false;
    }
  }
  return false;
}

std::string NameRow(const ObjectModel& o) { return Quote(o.name); }

// The snapshot fields an object shows at `now` (static attributes plus
// the current salary; managers also carry dependents).
std::map<std::string, std::string> SnapshotFields(const ObjectModel& o,
                                                  int64_t now) {
  std::map<std::string, std::string> f;
  f["name"] = Quote(o.name);
  f["birthyear"] = std::to_string(o.birthyear);
  f["office"] = Quote(o.office);
  f["salary"] = std::to_string(*o.salary.At(now));
  if (o.dependents.has_value()) f["dependents"] = std::to_string(*o.dependents);
  return f;
}

// The when-answer model: instants in [a,b] where salary > v.
std::set<int64_t> WhenAbove(const StepFn& salary, int64_t v, int64_t a,
                            int64_t b) {
  std::set<int64_t> out;
  for (int64_t t = a; t <= b; ++t) {
    std::optional<int64_t> s = salary.At(t);
    if (s.has_value() && *s > v) out.insert(t);
  }
  return out;
}

// --- operations ------------------------------------------------------------------

enum OpKind : int {
  kRead = 0,
  kUpdate,
  kCorrect,
  kCreate,
  kMigrate,
  kHot,
  kTick,
  kOpKinds
};
const char* const kOpNames[kOpKinds] = {"read",    "update",  "correct", "create",
                                        "migrate", "hot",     "tick"};

enum Shape : int { kIndexSelect = 0, kScan, kWhen, kHistory, kSnapshot, kMulti, kFresh, kShapes };
const char* const kShapeNames[kShapes] = {"index_select", "scan", "when",
                                          "history", "snapshot", "multi_binder",
                                          "fresh_select"};

struct Op {
  std::string text;
  int kind = kRead;
  int shape = 0;
  int slot = -1;        // owned-object slot (writes)
  int64_t value = 0;    // written salary / dependents
  int64_t a = 0, b = 0; // correction window
  const Expect* expect = nullptr;  // reads
  Expect fresh;                    // reads built per operation
  int pool = -1;                   // pool index (dashboard reads)
  std::string name;                // created object's name
};

// One client's statement generator together with the model of the
// objects it owns. Not thread-safe: one per client thread.
class Actor {
 public:
  virtual ~Actor() = default;
  virtual void Next(Op* op) = 0;
  virtual void Make(int kind, Op* op) = 0;
  // Checks a read answer, or records a write acknowledgement.
  virtual bool Accept(const Op& op, const std::string& answer,
                      std::string* why) = 0;
  virtual int64_t now() const = 0;
};

// Owned object state for writer-owned objects.
struct Owned {
  int k = 0;
  StepFn past;                 // setup history + acknowledged corrections
  std::optional<int64_t> cur;  // last acknowledged current-time value
  int64_t cls = kEmployee;
};

struct Created {
  std::string oid, name;
  int64_t salary = 0;
};

// --- the workloads' shared state ------------------------------------------------

struct World {
  Population pop;
  int clients = 4;
  // dashboard_reads
  std::vector<Expect> pool_expect;
  std::vector<std::string> pool_text;
  std::vector<int> pool_shape;
  int writer_lo = 0;  // objects [writer_lo, employees) are writer-owned
  // durable_writes
  int owned_hi = 0;   // objects [0, owned_hi) are client-owned
  int hot = 0;        // the shared hot object
  std::atomic<int64_t> ticks{0};
  bool wrong_answer = false;
};

std::vector<int> Share(int lo, int hi, int c, int parts) {
  std::vector<int> out;
  for (int k = lo; k < hi; ++k) {
    if (k % parts == c) out.push_back(k);
  }
  return out;
}

class DashboardActor final : public Actor {
 public:
  DashboardActor(World* w, int c, uint64_t seed)
      : w_(w), c_(c), rng_(seed * 131 + c + 1),
        verified_(w->pool_text.size()) {
    for (int k : Share(w->writer_lo, w->pop.sizes.employees, c, w->clients + 1)) {
      Owned o;
      o.k = k;
      o.past = w->pop.objects[k].salary;
      owned_.push_back(std::move(o));
    }
  }
  const std::vector<Owned>& owned() const { return owned_; }

  void Next(Op* op) override { Make(rng_.Unit() < 0.05 ? kUpdate : kRead, op); }

  void Make(int kind, Op* op) override {
    op->kind = kind;
    if (kind == kRead) {
      op->pool = static_cast<int>(rng_.Uniform(w_->pool_text.size()));
      op->text = w_->pool_text[op->pool];
      op->shape = w_->pool_shape[op->pool];
      op->expect = &w_->pool_expect[op->pool];
      return;
    }
    op->kind = kUpdate;
    op->slot = static_cast<int>(rng_.Uniform(owned_.size()));
    op->value = 20'000'000 + 1'000'000 * static_cast<int64_t>(c_) + counter_++;
    op->text = "update " + w_->pop.objects[owned_[op->slot].k].oid +
               " set salary = " + std::to_string(op->value);
  }

  bool Accept(const Op& op, const std::string& answer, std::string* why) override {
    if (op.kind != kRead) {
      if (answer != "ok") {
        *why = "update answered '" + answer + "'";
        return false;
      }
      owned_[op.slot].cur = op.value;
      return true;
    }
    // An answer byte-equal to one already verified against the model for
    // this statement is the same set; anything else is checked afresh.
    if (answer == verified_[op.pool]) return true;
    if (!Matches(*op.expect, answer, now(), why)) {
      *why = op.text + ": " + *why;
      return false;
    }
    verified_[op.pool] = answer;
    return true;
  }
  int64_t now() const override { return w_->pop.now; }

 private:
  World* w_;
  int c_;
  Rng rng_;
  std::vector<std::string> verified_;
  std::vector<Owned> owned_;
  int64_t counter_ = 0;
};

class DurableActor final : public Actor {
 public:
  DurableActor(World* w, int c, uint64_t seed)
      : w_(w), c_(c), rng_(seed * 977 + c + 1) {
    for (int k : Share(0, w->owned_hi, c, w->clients + 1)) {
      Owned o;
      o.k = k;
      o.past = w->pop.objects[k].salary;
      owned_.push_back(std::move(o));
    }
    // Self-test: the model claims a correction nobody sent.
    if (w->wrong_answer && c == 0) owned_[0].past.SetRange(0, 0, -1);
  }
  const std::vector<Owned>& owned() const { return owned_; }
  const std::vector<Created>& created() const { return created_; }
  std::optional<int64_t> hot_last() const { return hot_last_; }

  void Next(Op* op) override {
    if (c_ == 0 && ++ops_ % 50 == 0) return Make(kTick, op);
    const double r = rng_.Unit();
    if (r < 0.10) return Make(kRead, op);
    const double m = rng_.Unit();
    int kind = kUpdate;
    // Creates and migrations stay rare: each adds an extent segment, and
    // the post-run recovery audit grows with the square of their number
    // (README, "Reference figures").
    if (m < 0.60) kind = kUpdate;
    else if (m < 0.868) kind = kCorrect;
    else if (m < 0.874) kind = kMigrate;
    else if (m < 0.88) kind = kCreate;
    else kind = kHot;
    Make(kind, op);
  }

  void Make(int kind, Op* op) override {
    const Population& pop = w_->pop;
    op->kind = kind;
    const int64_t n = counter_++;
    const int64_t tag = 1'000'000 * static_cast<int64_t>(c_) + n;
    switch (kind) {
      case kRead: {
        // A past instant of an unowned object: fixed while writers run.
        const int k = static_cast<int>(rng_.Range(w_->owned_hi, w_->hot - 1));
        const ObjectModel& o = pop.objects[k];
        const int64_t t = rng_.Range(0, pop.now - 1);
        op->shape = kFresh;
        // The birthyear conjunct carries a literal no other read uses, so
        // every read misses the plan cache.
        op->text = "select x.name from x in employee at " + std::to_string(t) +
                   " where x.salary = " + std::to_string(*o.salary.At(t)) +
                   " and x.birthyear <> -" + std::to_string(tag);
        op->fresh = Expect();
        op->fresh.kind = Expect::Kind::kRows;
        op->fresh.rows = {NameRow(o)};
        op->expect = &op->fresh;
        return;
      }
      case kUpdate:
        op->slot = static_cast<int>(rng_.Uniform(owned_.size()));
        op->value = 30'000'000 + tag;
        op->text = "update " + pop.objects[owned_[op->slot].k].oid +
                   " set salary = " + std::to_string(op->value);
        return;
      case kCorrect:
        op->slot = static_cast<int>(rng_.Uniform(owned_.size()));
        op->value = 40'000'000 + tag;
        op->a = rng_.Range(0, pop.now - 1);
        op->b = std::min(pop.now - 1, op->a + rng_.Range(0, 4));
        op->text = "update " + pop.objects[owned_[op->slot].k].oid +
                   " set salary = " + std::to_string(op->value) + " during [" +
                   std::to_string(op->a) + "," + std::to_string(op->b) + "]";
        return;
      case kMigrate: {
        op->slot = static_cast<int>(rng_.Uniform(owned_.size()));
        const std::string& oid = pop.objects[owned_[op->slot].k].oid;
        if (owned_[op->slot].cls == kEmployee) {
          op->value = rng_.Range(0, 6);
          op->text = "migrate " + oid + " to manager set dependents = " +
                     std::to_string(op->value);
        } else {
          op->text = "migrate " + oid + " to employee";
        }
        return;
      }
      case kCreate:
        op->value = 50'000'000 + tag;
        op->name = "c" + std::to_string(tag);
        op->text = "create employee (name: '" + op->name + "', birthyear: 1999, salary: " + std::to_string(op->value) +
                   ", office: 'B0')";
        return;
      case kHot:
        op->value = 60'000'000 + tag;
        op->text = "update " + pop.objects[w_->hot].oid + " set salary = " +
                   std::to_string(op->value);
        return;
      case kTick:
        op->text = "tick";
        return;
    }
  }

  bool Accept(const Op& op, const std::string& answer, std::string* why) override {
    switch (op.kind) {
      case kRead:
        if (Matches(*op.expect, answer, now(), why)) return true;
        *why = op.text + ": " + *why;
        return false;
      case kCreate:
        if (answer.size() < 2 || answer[0] != 'i') {
          *why = "create answered '" + answer + "'";
          return false;
        }
        created_.push_back({answer, op.name, op.value});
        return true;
      case kTick:
        if (answer.rfind("now = ", 0) != 0) {
          *why = "tick answered '" + answer + "'";
          return false;
        }
        w_->ticks.fetch_add(1);
        return true;
      default:
        break;
    }
    if (answer != "ok") {
      *why = op.text + " answered '" + answer + "'";
      return false;
    }
    if (op.kind == kUpdate) owned_[op.slot].cur = op.value;
    if (op.kind == kCorrect) owned_[op.slot].past.SetRange(op.a, op.b, op.value);
    if (op.kind == kMigrate) {
      owned_[op.slot].cls = owned_[op.slot].cls == kEmployee ? kManager : kEmployee;
    }
    if (op.kind == kHot) hot_last_ = op.value;
    return true;
  }
  int64_t now() const override { return w_->pop.now; }

 private:
  World* w_;
  int c_;
  Rng rng_;
  std::vector<Owned> owned_;
  std::vector<Created> created_;
  std::optional<int64_t> hot_last_;
  int64_t counter_ = 0;
  int64_t ops_ = 0;
};

// --- the serving stack -----------------------------------------------------------

struct BootTimes {
  double load_snapshot_s = 0, replay_s = 0, audit_s = 0, recovery_s = 0;
  size_t replayed = 0;
};

// recovery -> GroupCommitJournal -> Engine -> Server, as tchimera_serve
// assembles it.
class Stack {
 public:
  Stack(std::string dir, bool traced)
      : dir_(std::move(dir)), traced_(traced),
        snapshot_path_(dir_ + "/snapshot.tchdb"),
        journal_path_(dir_ + "/journal.tql") {}
  ~Stack() { Shutdown(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  const std::string& dir() const { return dir_; }
  const std::string& snapshot_path() const { return snapshot_path_; }
  const std::string& journal_path() const { return journal_path_; }
  Engine& engine() { return *engine_; }
  GroupCommitJournal& sink() { return *sink_; }
  Server& server() { return *server_; }

  // Recovers the engine from disk; with `open_sink`, then opens and
  // installs the commit sink. `statement_ns` (optional) gets the time of
  // every replayed statement.
  Status Recover(bool open_sink, BootTimes* times,
                 std::vector<int64_t>* statement_ns = nullptr) {
    const int64_t t0 = NowNs();
    tchimera::RecoveryManager recovery(snapshot_path_, journal_path_);
    tchimera::RecoveryStats stats;
    int64_t t = NowNs();
    Result<std::unique_ptr<Database>> loaded = Status::Internal("unset");
    {
      ScopedSpan span("storage.recovery.load_snapshot");
      loaded = recovery.LoadSnapshot(&stats);
    }
    times->load_snapshot_s = Seconds(NowNs() - t);
    if (!loaded.ok()) return loaded.status();
    engine_ = std::make_unique<Engine>(std::move(loaded).value());
    Session boot = engine_->OpenSession();
    t = NowNs();
    Status replayed = Status::OK();
    {
      ScopedSpan span("storage.recovery.replay_journals");
      for (const std::string& definition : recovery.snapshot_definitions()) {
        replayed = boot.Execute(definition).status();
        if (!replayed.ok()) return replayed;
      }
      replayed = recovery.ReplayJournals(
          [&](const std::string& statement) {
            const int64_t s = NowNs();
            Status st = Status::OK();
            {
              ScopedSpan exec("query.session_execute");
              st = boot.Execute(statement).status();
            }
            if (statement_ns != nullptr) statement_ns->push_back(NowNs() - s);
            return st;
          },
          &stats);
    }
    times->replay_s = Seconds(NowNs() - t);
    times->replayed = stats.statements_applied;
    if (!replayed.ok()) return replayed;
    t = NowNs();
    Status audit = Status::OK();
    {
      ScopedSpan span("core.db.audit");
      audit = tchimera::RecoveryManager::Audit(
          &engine_->writer_db(), tchimera::AuditMode::kFail, &stats);
    }
    times->audit_s = Seconds(NowNs() - t);
    if (!audit.ok()) return audit;
    if (open_sink) {
      ScopedSpan span("storage.group_commit.open");
      sink_ = std::make_unique<GroupCommitJournal>();
      tchimera::JournalOptions options;
      options.epoch = stats.next_epoch;
      if (traced_) options.fs = &tfs_;
      Status opened = sink_->Open(journal_path_, options);
      if (!opened.ok()) return opened;
      if (traced_) {
        tsink_ = std::make_unique<TracingSink>(sink_.get());
        engine_->set_commit_sink(tsink_.get());
      } else {
        engine_->set_commit_sink(sink_.get());
      }
    }
    times->recovery_s = Seconds(NowNs() - t0);
    return Status::OK();
  }

  Status StartServer() {
    ServerOptions options;
    GroupCommitJournal* sink = sink_.get();
    options.commit_backlog = [sink]() -> uint64_t {
      uint64_t d = sink->durable();
      uint64_t e = sink->enqueued();
      return e > d ? e - d : 0;
    };
    options.worker_threads = kClients;
    server_ = std::make_unique<Server>(engine_.get(), options);
    return server_->Start();
  }

  // Stops serving and closes the journal; the engine stays inspectable.
  void StopServing() {
    if (server_ != nullptr) server_->Stop();
    if (sink_ != nullptr && sink_->is_open()) sink_->Close();
  }

  void Shutdown() {
    StopServing();
    server_.reset();
    engine_.reset();
    tsink_.reset();
    sink_.reset();
  }

 private:
  std::string dir_;
  bool traced_;
  std::string snapshot_path_, journal_path_;
  TracingFileSystem tfs_;
  std::unique_ptr<GroupCommitJournal> sink_;
  std::unique_ptr<TracingSink> tsink_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Server> server_;
};

void FreshDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

Status CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::copy(from, to, fs::copy_options::recursive, ec);
  return ec ? Status::IoError("copy " + from + ": " + ec.message()) : Status::OK();
}

// Loads the population through an Interpreter over a bare Database (an
// offline bulk load: no sessions exist yet) and writes the checkpoint
// that serving recovers from.
Status BuildCheckpoint(const Population& pop, const std::string& dir,
                       double* checkpoint_s) {
  Database db;
  tchimera::Interpreter interp(&db);
  for (const std::string& s : pop.schema) {
    Result<std::string> r = interp.Execute(s);
    if (!r.ok()) return r.status();
  }
  uint64_t next_oid = 1;
  for (const std::string& s : pop.statements) {
    Result<std::string> r = interp.Execute(s);
    if (!r.ok()) return Status::Internal(s + ": " + r.status().ToString());
    if (s.rfind("create ", 0) == 0 && s.rfind("create index", 0) != 0) {
      const std::string want = "i" + std::to_string(next_oid++);
      if (r.value() != want) {
        return Status::Internal("create answered " + r.value() + ", model " + want);
      }
    }
  }
  tchimera::Journal journal;
  Status opened = journal.Open(dir + "/journal.tql");
  if (!opened.ok()) return opened;
  const int64_t t = NowNs();
  Status cp;
  {
    ScopedSpan span("storage.serializer.checkpoint");
    cp = tchimera::RecoveryManager::Checkpoint(db, &journal, dir + "/snapshot.tchdb");
  }
  *checkpoint_s = Seconds(NowNs() - t);
  journal.Close();
  return cp;
}

// A statement through a Client, resent while the server says retryable
// (admission control, exhausted conflict budget): a closed-loop client
// that needs its write to land.
Result<std::string> ExecuteUntilDone(Client* client, const std::string& text,
                                     uint64_t* resends) {
  Result<std::string> r = client->ExecuteRetrying(text);
  for (int i = 0; i < 100 && !r.ok() && client->last_error_retryable(); ++i) {
    ++*resends;
    r = client->ExecuteRetrying(text);
  }
  return r;
}

// --- span post-processing ------------------------------------------------------

struct SelfTimes {
  std::map<std::string, double> self_s;  // layer row -> seconds
  double total_s = 0;                    // traced end-to-end time
  double remainder_s = 0;                // untraced remainder
  std::map<std::string, std::vector<double>> dur_us;  // name -> durations
};

// Self time of every span = its duration minus its children's. Spans on
// server threads have no parent there; they are joined to the client
// round trip that carried the same request id and contains them.
// `roots` names the spans whose durations make up the traced end-to-end
// time inside the given windows; `total_s` is that time.
SelfTimes ComputeSelfTimes(std::vector<Span> spans,
                           const std::vector<std::pair<int64_t, int64_t>>& windows,
                           const char* root_name, double total_s) {
  SelfTimes out;
  out.total_s = total_s;
  auto in_window = [&](const Span& s) {
    for (const auto& [a, b] : windows) {
      if (s.start_ns >= a && s.end_ns <= b) return true;
    }
    return false;
  };
  std::unordered_map<uint64_t, size_t> by_id;
  std::unordered_multimap<uint64_t, size_t> roots_by_request;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_id[spans[i].id] = i;
    if (std::strcmp(spans[i].name, root_name) == 0) {
      roots_by_request.emplace(spans[i].request, i);
    }
  }
  for (Span& s : spans) {
    if (s.parent != 0 || std::strcmp(s.name, root_name) == 0) continue;
    auto range = roots_by_request.equal_range(s.request);
    for (auto it = range.first; it != range.second; ++it) {
      const Span& r = spans[it->second];
      if (r.start_ns <= s.start_ns && s.end_ns <= r.end_ns) {
        s.parent = r.id;
        break;
      }
    }
  }
  // Keep the trees rooted at in-window root spans.
  std::vector<char> keep(spans.size(), 0);
  std::function<size_t(size_t)> root_of = [&](size_t i) -> size_t {
    size_t cur = i;
    for (int depth = 0; depth < 64; ++depth) {
      if (spans[cur].parent == 0) return cur;
      auto it = by_id.find(spans[cur].parent);
      if (it == by_id.end()) return cur;
      cur = it->second;
    }
    return cur;
  };
  std::vector<double> child_ns(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const size_t r = root_of(i);
    if (std::strcmp(spans[r].name, root_name) != 0 || !in_window(spans[r])) continue;
    keep[i] = 1;
    if (spans[i].parent != 0) {
      auto it = by_id.find(spans[i].parent);
      if (it != by_id.end()) {
        child_ns[it->second] +=
            static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      }
    }
  }
  double covered = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!keep[i]) continue;
    const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    out.self_s[spans[i].name] += (d - child_ns[i]) / 1e9;
    out.dur_us[spans[i].name].push_back(d / 1e3);
    if (spans[i].parent == 0) covered += d / 1e9;
  }
  out.remainder_s = total_s - covered;
  return out;
}

void PrintSelfTimes(const std::string& workload, const SelfTimes& st,
                    const std::map<std::string, std::string>& labels) {
  std::printf("per-layer self time, traced run of %s (traced end-to-end %.6f s):\n",
              workload.c_str(), st.total_s);
  double sum = 0;
  for (const auto& [name, s] : st.self_s) {
    auto it = labels.find(name);
    std::printf("  %-44s %12.6f s  %6.2f%%\n",
                (it != labels.end() ? it->second : name).c_str(), s,
                st.total_s > 0 ? 100.0 * s / st.total_s : 0.0);
    sum += s;
  }
  std::printf("  %-44s %12.6f s  %6.2f%%\n", "untraced remainder", st.remainder_s,
              st.total_s > 0 ? 100.0 * st.remainder_s / st.total_s : 0.0);
  sum += st.remainder_s;
  std::printf("  %-44s %12.6f s (rows add up to the traced end-to-end time)\n",
              "sum", sum);
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "name\tstart_ns\tend_ns\tid\tparent\trequest_id\n";
  for (const Span& s : spans) {
    out << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.id
        << '\t' << s.parent << '\t' << s.request << '\n';
  }
}

// --- in-process samples of every statement shape (traced run) ------------------

struct ReadSamples {
  std::vector<double> session_us, parse_us, plan_key_us, lower_us, vm_us,
      format_us, snapshot_open_us, walker_us, rtt_us;
};

// Runs one read three ways: through an in-process Session (compiled and
// with compilation off, which must agree), through a Client, and step by
// step through the public query functions on a pinned snapshot.
void SampleRead(Engine* engine, Session* session, Session* walker,
                Client* client, const Op& op, int64_t now, ReadSamples* out,
                Report* report) {
  const uint64_t req = RequestId(op.text);
  int64_t t = NowNs();
  Result<std::string> compiled = Status::Internal("unset");
  {
    ScopedSpan span("sample.session_read", req);
    compiled = session->Execute(op.text);
  }
  const double session_us = Micros(NowNs() - t);
  out->session_us.push_back(session_us);
  std::string why;
  if (!compiled.ok()) {
    report->Fail(op.text + ": " + compiled.status().ToString());
    return;
  }
  if (op.expect != nullptr && !Matches(*op.expect, compiled.value(), now, &why)) {
    report->Fail("sample " + op.text + ": " + why);
  }
  Result<std::string> walked = walker->Execute(op.text);
  report->Check(walked.ok() && RowSet(walked.value()) == RowSet(compiled.value()),
                "compiled answer differs from the tree-walker: " + op.text);
  if (op.shape == kMulti) out->walker_us.push_back(session_us);
  if (client != nullptr) {
    t = NowNs();
    Result<std::string> rtt = client->Execute(op.text);
    out->rtt_us.push_back(Micros(NowNs() - t));
    report->Check(rtt.ok() && RowSet(rtt.value()) == RowSet(compiled.value()),
                  "client answer differs from the session: " + op.text);
  }

  ScopedSpan root("sample.read_steps", req);
  t = NowNs();
  tchimera::ReadSnapshot snap;
  {
    ScopedSpan span("core.db.snapshot_open");
    snap = engine->OpenSnapshot();
  }
  out->snapshot_open_us.push_back(Micros(NowNs() - t));
  t = NowNs();
  Result<tchimera::Statement> parsed = Status::Internal("unset");
  {
    ScopedSpan span("query.parse");
    parsed = tchimera::ParseStatement(op.text);
  }
  out->parse_us.push_back(Micros(NowNs() - t));
  if (!parsed.ok()) {
    report->Fail("parse " + op.text);
    return;
  }
  tchimera::Statement stmt = std::move(parsed).value();
  const bool lowerable = stmt.kind == tchimera::Statement::Kind::kSelect ||
                         stmt.kind == tchimera::Statement::Kind::kWhen;
  std::optional<tchimera::LoweredPlan> plan;
  if (lowerable) {
    t = NowNs();
    std::string key;
    {
      ScopedSpan span("query.plan_key");
      key = tchimera::NormalizePlanKey(op.text);
    }
    out->plan_key_us.push_back(Micros(NowNs() - t));
    {
      ScopedSpan span("query.plan_cache_lookup");
      (void)engine->plan_cache().Lookup(key, snap.db().schema_version());
    }
    t = NowNs();
    Result<tchimera::LowerOutcome> lowered = Status::Internal("unset");
    {
      ScopedSpan span("query.lower");
      lowered = tchimera::LowerStatement(&stmt, snap.db());
    }
    if (lowered.ok() && lowered.value().plan.has_value()) {
      out->lower_us.push_back(Micros(NowNs() - t));
      plan = std::move(lowered.value().plan);
    }
  }
  std::string answer;
  if (plan.has_value()) {
    t = NowNs();
    if (plan->kind == tchimera::LoweredPlan::Kind::kSelect) {
      Result<std::vector<tchimera::SelectRow>> rows = Status::Internal("unset");
      {
        ScopedSpan span("query.vm");
        rows = tchimera::RunSelect(plan->program, snap.db());
      }
      out->vm_us.push_back(Micros(NowNs() - t));
      t = NowNs();
      if (rows.ok()) {
        ScopedSpan span("query.format");
        answer = tchimera::FormatSelectRows(rows.value());
      }
    } else {
      Result<tchimera::IntervalSet> held = Status::Internal("unset");
      {
        ScopedSpan span("query.vm");
        held = tchimera::RunWhen(plan->program, snap.db());
      }
      out->vm_us.push_back(Micros(NowNs() - t));
      t = NowNs();
      if (held.ok()) {
        ScopedSpan span("query.format");
        answer = held.value().ToString();
      }
    }
    out->format_us.push_back(Micros(NowNs() - t));
  } else {
    t = NowNs();
    tchimera::Interpreter interp(const_cast<Database*>(&snap.db()));
    Result<std::string> r = Status::Internal("unset");
    {
      ScopedSpan span("query.walker");
      r = interp.ExecuteStatement(&stmt);
    }
    if (r.ok()) answer = r.value();
  }
  report->Check(RowSet(answer) == RowSet(compiled.value()),
                "step-by-step answer differs from the session: " + op.text);
}

// Per write kind: Session::Execute time minus the sink spans inside it.
struct WriteSamples {
  std::map<int, std::vector<double>> session_us;  // kind -> self µs
  std::vector<double> parse_us;
};

void SampleWrite(Session* session, Actor* actor, int kind, WriteSamples* out,
                 Report* report) {
  Op op;
  actor->Make(kind, &op);
  int64_t t = NowNs();
  {
    Result<tchimera::Statement> parsed = tchimera::ParseStatement(op.text);
    report->Check(parsed.ok(), "parse " + op.text);
  }
  out->parse_us.push_back(Micros(NowNs() - t));
  const uint64_t req = RequestId(op.text);
  const size_t mark = Tracer::Get().size();
  t = NowNs();
  Result<std::string> r = Status::Internal("unset");
  {
    ScopedSpan span("sample.session_write", req);
    r = session->Execute(op.text);
  }
  const int64_t total = NowNs() - t;
  int64_t sink_ns = 0;
  for (const Span& s : Tracer::Get().Since(mark)) {
    if (s.request == req && (std::strcmp(s.name, "storage.group_commit.enqueue") == 0 ||
                             std::strcmp(s.name, "storage.group_commit.await") == 0)) {
      sink_ns += s.end_ns - s.start_ns;
    }
  }
  out->session_us[kind].push_back(Micros(total - sink_ns));
  std::string why;
  if (!r.ok()) {
    report->Fail(op.text + ": " + r.status().ToString());
  } else if (!actor->Accept(op, r.value(), &why)) {
    report->Fail(why);
  }
}

// --- setup shared by the served workloads ---------------------------------------

struct SetupTimes {
  std::vector<double> setup_s, load_snapshot_s, audit_s, checkpoint_s;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work = ".bench_work";
  bool sizing = false;
  bool wrong_answer = false;  // self-test: one model expectation is wrong
};

std::string RunHeader(const Args& args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "workload=%s seed=%llu seconds=%g trace=%d nproc=%ld cpu=%d build=%s "
                "flush=GroupCommitOptions{max_batch=64,max_delay=0us} "
                "fdatasync=real (this filesystem's, not a device's)",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), g_cpu,
                TQLBENCH_BUILD_TYPE);
  return buf;
}

// Pins the process to one CPU before any thread starts. Every thread of
// the process (clients, the server's IO thread and workers, the group
// commit leader) shares it, so a round trip hands off between threads on
// one core. Spread over the cores of this shared VM, each hand-off waits
// for an idle virtual CPU to be woken, which takes the host anywhere from
// microseconds to a millisecond depending on its other tenants: over
// five seeds in a busy period, throughput spread 0.60 with four cores,
// 0.28 with two and 0.01-0.14 with one, while single-threaded set-up work
// spread 0.06-0.07 throughout.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  // The highest allowed CPU: CPU 0 takes most device interrupts.
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) g_cpu = c;
    return;
  }
}

// Builds the checkpoint and boots the serving stack kSetups times; the
// last stack stays up. `after_boot` runs inside the timed setup (durable
// definitions).
Status SetupServed(const World& world, const std::string& dir, bool traced,
                   std::unique_ptr<Stack>* stack, SetupTimes* times,
                   const std::function<Status(Stack*)>& after_boot) {
  for (int i = 0; i < kSetups; ++i) {
    stack->reset();
    FreshDir(dir);
    const int64_t t0 = NowNs();
    double checkpoint_s = 0;
    Status built = BuildCheckpoint(world.pop, dir, &checkpoint_s);
    if (!built.ok()) return built;
    *stack = std::make_unique<Stack>(dir, traced);
    BootTimes boot;
    Status recovered = (*stack)->Recover(true, &boot);
    if (!recovered.ok()) return recovered;
    if (after_boot) {
      Status s = after_boot(stack->get());
      if (!s.ok()) return s;
    }
    Status started = (*stack)->StartServer();
    if (!started.ok()) return started;
    times->setup_s.push_back(Seconds(NowNs() - t0));
    times->load_snapshot_s.push_back(boot.load_snapshot_s);
    times->audit_s.push_back(boot.audit_s);
    times->checkpoint_s.push_back(checkpoint_s);
  }
  return Status::OK();
}

// --- the closed loop -------------------------------------------------------------

// One measured statement: when it started (since the window opened) and
// how long its round trip took.
struct Sample {
  int64_t at_ns = 0;
  int64_t dt_ns = 0;
  int kind = kRead;
  int shape = 0;
  uint64_t slice = 0;  // trace slice the statement started in
};

struct ThreadResult {
  std::vector<Sample> samples;
  // ops and failed count every statement sent, warm-up and drain included;
  // samples hold the ones that started inside the window and succeeded.
  uint64_t ops = 0, failed = 0, resends = 0, retries_absorbed = 0;
  uint64_t walker_reads = 0;
};

struct LoopControl {
  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> slice{0};  // odd = traced (traced runs only)
  std::atomic<int64_t> start_ns{0};
};

void ClientLoop(uint16_t port, Actor* actor, LoopControl* ctl,
                ThreadResult* out, Report* report, std::mutex* report_mu) {
  Result<std::unique_ptr<Client>> connected = Client::Connect("127.0.0.1", port);
  if (!connected.ok()) {
    std::lock_guard<std::mutex> lock(*report_mu);
    report->Fail("connect: " + connected.status().ToString());
    return;
  }
  Client* client = connected.value().get();
  Op op;
  while (!ctl->stop.load(std::memory_order_relaxed)) {
    actor->Next(&op);
    const bool measured = ctl->measuring.load(std::memory_order_relaxed);
    const uint64_t slice = ctl->slice.load(std::memory_order_relaxed);
    const int64_t t0 = NowNs();
    Result<std::string> r = Status::Internal("unset");
    {
      ScopedSpan span("client.round_trip", RequestId(op.text));
      r = ExecuteUntilDone(client, op.text, &out->resends);
    }
    const int64_t dt = NowNs() - t0;
    std::string why;
    const bool ok = r.ok() && actor->Accept(op, r.value(), &why);
    ++out->ops;
    if (!ok) {
      ++out->failed;
      std::lock_guard<std::mutex> lock(*report_mu);
      report->Fail(r.ok() ? why : op.text + ": " + r.status().ToString());
      continue;
    }
    if (!measured) continue;
    out->samples.push_back({t0 - ctl->start_ns.load(std::memory_order_relaxed), dt,
                            op.kind, op.shape, slice});
    if (op.kind == kRead && op.shape == kMulti) ++out->walker_reads;
  }
  out->retries_absorbed = client->retries_absorbed();
}

struct LoopOutcome {
  ThreadResult all;
  double window_s = 0;
  double cpu_s = 0;
  double parity_s[2] = {0, 0};  // wall time per slice parity
  std::vector<double> slice_s;  // duration of each slice
  std::vector<std::pair<int64_t, int64_t>> traced_windows;
};

LoopOutcome RunClosedLoop(uint16_t port, std::vector<std::unique_ptr<Actor>>& actors,
                          double seconds, bool traced, Report* report) {
  LoopControl ctl;
  std::vector<ThreadResult> results(actors.size());
  std::mutex report_mu;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < actors.size(); ++c) {
    threads.emplace_back(ClientLoop, port, actors[c].get(), &ctl, &results[c],
                         report, &report_mu);
  }
  // Warm-up: connections, plan cache, allocator.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  LoopOutcome out;
  const double cpu0 = CpuSeconds();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  ctl.start_ns.store(start);
  ctl.measuring.store(true);
  int64_t slice_start = start;
  while (true) {
    const int64_t now = NowNs();
    if (now >= end) break;
    const int64_t next = std::min(end, slice_start + kSliceNs);
    std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
    const uint64_t s = ctl.slice.load();
    const int64_t t = NowNs();
    out.slice_s.push_back(Seconds(t - slice_start));
    out.parity_s[s & 1] += Seconds(t - slice_start);
    if (traced) {
      if (s & 1) out.traced_windows.push_back({slice_start, t});
      Tracer::Get().set_enabled(((s + 1) & 1) != 0);
    }
    ctl.slice.store(s + 1);
    slice_start = t;
  }
  ctl.measuring.store(false);
  Tracer::Get().set_enabled(false);
  const int64_t stop = NowNs();
  out.window_s = Seconds(stop - start);
  out.cpu_s = CpuSeconds() - cpu0;
  ctl.stop.store(true);
  for (std::thread& t : threads) t.join();
  for (ThreadResult& r : results) {
    ThreadResult& a = out.all;
    a.samples.insert(a.samples.end(), r.samples.begin(), r.samples.end());
    a.ops += r.ops;
    a.failed += r.failed;
    a.resends += r.resends;
    a.retries_absorbed += r.retries_absorbed;
    a.walker_reads += r.walker_reads;
  }
  return out;
}

// The end-to-end figures of a closed-loop window: throughput and latency
// percentiles over every statement that started inside it.
struct LoadFigures {
  Percentiles read, write;
  double throughput = 0;
};

LoadFigures WindowFigures(const std::vector<Sample>& samples, double window_s) {
  LoadFigures f;
  std::vector<int64_t> reads, writes;
  for (const Sample& s : samples) (s.kind == kRead ? reads : writes).push_back(s.dt_ns);
  f.read = Pct(std::move(reads));
  f.write = Pct(std::move(writes));
  f.throughput = window_s > 0 ? static_cast<double>(samples.size()) / window_s : 0.0;
  return f;
}

// --- cold replica catch-up -------------------------------------------------------

struct CatchUp {
  double catchup_s = 0;
  double install_s = 0, apply_s = 0;  // traced (manual) catch-up only
  uint32_t hash = 0;
};

// A fresh replica catches up from the primary's checkpoint and journal:
// untraced through ReplicationShipper::DrainAll; traced step by step
// (FetchCheckpoint + InstallCheckpoint, then Fetch + Apply to the
// horizon) so the two replication calls are timed apart.
Status CatchUpReplica(Stack* primary, const std::string& replica_dir, bool traced,
                      CatchUp* out) {
  FreshDir(replica_dir);
  tchimera::ReplicationSource::Options sopts;
  sopts.horizon = &primary->sink();
  sopts.snapshot_path = primary->snapshot_path();
  tchimera::ReplicationSource source(primary->journal_path(), sopts);
  const int64_t t0 = NowNs();
  Result<std::unique_ptr<tchimera::Replica>> replica =
      tchimera::Replica::Open(replica_dir);
  if (!replica.ok()) return replica.status();
  if (!traced) {
    tchimera::ReplicationShipper shipper(&source, &primary->engine());
    shipper.AddReplica(replica.value().get(), "bench");
    Status drained = shipper.DrainAll();
    if (!drained.ok()) return drained;
  } else {
    ScopedSpan root("replica.catch_up");
    int64_t t = NowNs();
    {
      Result<tchimera::ReplicationSource::CheckpointImage> image =
          source.FetchCheckpoint();
      if (!image.ok()) return image.status();
      ScopedSpan span("storage.replication.install_checkpoint");
      Status installed = replica.value()->InstallCheckpoint(image.value());
      if (!installed.ok()) return installed;
    }
    out->install_s = Seconds(NowNs() - t);
    t = NowNs();
    for (int round = 0; round < 1'000'000; ++round) {
      Result<tchimera::ReplicationBatch> batch = Status::Internal("unset");
      {
        ScopedSpan span("storage.replication.fetch");
        batch = source.Fetch(replica.value()->cursor());
      }
      if (!batch.ok()) return batch.status();
      {
        ScopedSpan span("storage.replication.apply");
        Status applied = replica.value()->Apply(batch.value());
        if (!applied.ok()) return applied;
      }
      if (batch.value().at_horizon && batch.value().horizon.drained) break;
    }
    out->apply_s = Seconds(NowNs() - t);
  }
  out->catchup_s = Seconds(NowNs() - t0);
  Engine& engine = replica.value()->engine();
  Result<uint32_t> h = tchimera::DatabaseStateHash(
      engine.writer_db(), engine.active().DefinitionStatements());
  if (!h.ok()) return h.status();
  out->hash = h.value();
  return Status::OK();
}

Result<uint32_t> EngineHash(Engine& engine) {
  return tchimera::DatabaseStateHash(engine.writer_db(),
                                     engine.active().DefinitionStatements());
}

// --- dashboard_reads / durable_writes ------------------------------------------

void BuildDashboardPool(World* w, uint64_t seed) {
  const Population& pop = w->pop;
  Rng rng(seed * 31 + 5);
  const int stable_hi = w->writer_lo;  // objects no writer owns
  auto add = [&](std::string text, int shape, Expect e) {
    w->pool_text.push_back(std::move(text));
    w->pool_shape.push_back(shape);
    w->pool_expect.push_back(std::move(e));
  };
  // The shares are set so that read_p50_us falls inside one shape's
  // latencies (the index probes, 35-75% of reads) and not on the step
  // between two shapes, where it would measure the draw of the mix.
  // Selective value-index equality probes on stable objects, at a past
  // instant or at now.
  for (int i = 0; i < 16; ++i) {
    const ObjectModel& o = pop.objects[rng.Uniform(stable_hi)];
    const bool past = i < 8;
    const int64_t t = past ? rng.Range(0, pop.now - 1) : pop.now;
    Expect e;
    e.kind = Expect::Kind::kRows;
    e.rows.insert(NameRow(o));
    add("select x.name from x in employee" +
            (past ? " at " + std::to_string(t) : std::string()) +
            " where x.salary = " + std::to_string(*o.salary.At(t)),
        kIndexSelect, std::move(e));
  }
  // Time-slice scans at past instants (every object's past is fixed).
  for (int i = 0; i < 8; ++i) {
    const int64_t t = rng.Range(0, pop.now - 1);
    const int64_t year = 1950 + rng.Range(0, 49);
    Expect e;
    e.kind = Expect::Kind::kRows;
    for (const ObjectModel& o : pop.objects) {
      if (o.birthyear == year) {
        e.rows.insert(Quote(o.name) + " | " + std::to_string(*o.salary.At(t)));
      }
    }
    add("select x.name, x.salary from x in employee at " + std::to_string(t) +
            " where x.birthyear = " + std::to_string(year),
        kScan, std::move(e));
  }
  // when ... during windows that end before the run.
  for (int i = 0; i < 6; ++i) {
    const int k = static_cast<int>(rng.Uniform(pop.objects.size()));
    const ObjectModel& o = pop.objects[k];
    const int64_t a = rng.Range(0, pop.now / 2);
    const int64_t b = rng.Range(a, pop.now - 1);
    const int64_t v = *o.salary.At(rng.Range(0, pop.now - 1));
    Expect e;
    e.kind = Expect::Kind::kInstants;
    e.instants = WhenAbove(o.salary, v, a, b);
    add("when " + o.oid + ".salary > " + std::to_string(v) + " during [" +
            std::to_string(a) + "," + std::to_string(b) + "]",
        kWhen, std::move(e));
  }
  // history and snapshot of single stable objects (managers included).
  for (int i = 0; i < 8; ++i) {
    int k = static_cast<int>(rng.Uniform(stable_hi));
    if (i % 4 == 3) k = pop.sizes.employees + static_cast<int>(rng.Uniform(pop.sizes.managers));
    const ObjectModel& o = pop.objects[k];
    Expect e;
    if (i < 4) {
      e.kind = Expect::Kind::kHistory;
      e.history = o.salary;
      e.from = 0;
      e.to = pop.now;
      add("history " + o.oid + ".salary", kHistory, std::move(e));
    } else {
      e.kind = Expect::Kind::kSnapshot;
      e.fields = SnapshotFields(o, pop.now);
      add("snapshot " + o.oid, kSnapshot, std::move(e));
    }
  }
  // Multi-binder selects over the two small classes (tree-walked).
  {
    Expect e;
    e.kind = Expect::Kind::kRows;
    for (const ProjectModel& p : pop.projects) {
      e.rows.insert(Quote(p.title) + " | " + Quote(pop.objects[p.lead].name));
    }
    add("select x.title, y.name from x in project, y in manager where x.lead = y",
        kMulti, std::move(e));
    const int64_t cut = 5000;
    Expect f;
    f.kind = Expect::Kind::kRows;
    for (const ProjectModel& p : pop.projects) {
      if (p.budget > cut) f.rows.insert(Quote(pop.objects[p.lead].name));
    }
    add("select y.name from x in project, y in manager where x.lead = y and "
        "x.budget > " + std::to_string(cut),
        kMulti, std::move(f));
  }
}

void CheckOwnedHistories(Client* client, const std::vector<Owned>& owned,
                         const Population& pop, int64_t now, Report* report,
                         uint64_t* reads) {
  for (const Owned& o : owned) {
    const ObjectModel& obj = pop.objects[o.k];
    Result<std::string> h = client->Execute("history " + obj.oid + ".salary");
    ++*reads;
    std::string why;
    if (!h.ok()) {
      report->Fail("history " + obj.oid + ": " + h.status().ToString());
      continue;
    }
    // The past is exact (setup + acknowledged corrections); at now the
    // last acknowledged current-time value holds.
    if (!HistoryMatches(h.value(), o.past, 0, pop.now - 1, now, &why)) {
      report->Fail("history " + obj.oid + ": " + why);
      continue;
    }
    StepFn at_now;
    at_now.SetFrom(now, o.cur.has_value() ? *o.cur : *o.past.Last());
    if (!HistoryMatches(h.value(), at_now, now, now, now, &why)) {
      report->Fail("current salary of " + obj.oid + ": " + why);
    }
  }
}

void AddPerLayerCommon(Report* rep, const ReadSamples& rs, const WriteSamples& ws) {
  rep->Metric("query.session_read_us", Median(rs.session_us), "us");
  rep->Metric("query.parse_read_us", Median(rs.parse_us), "us");
  rep->Metric("query.parse_write_us", Median(ws.parse_us), "us");
  rep->Metric("query.plan_key_us", Median(rs.plan_key_us), "us");
  rep->Metric("query.lower_us", Median(rs.lower_us), "us");
  rep->Metric("query.vm_us", Median(rs.vm_us), "us");
  rep->Metric("query.format_us", Median(rs.format_us), "us");
  rep->Metric("query.walker_us", Median(rs.walker_us), "us");
  for (int kind : {kUpdate, kCorrect, kCreate, kMigrate, kTick}) {
    auto it = ws.session_us.find(kind);
    rep->Metric(std::string("query.session_write_us.") + kOpNames[kind],
                it == ws.session_us.end() ? 0.0 : Median(it->second), "us");
  }
  rep->Metric("core.db.snapshot_open_us", Median(rs.snapshot_open_us), "us");
}

int RunServed(const Args& args) {
  const bool durable = args.workload == "durable_writes";
  Report report;
  std::printf("run: %s\n", RunHeader(args).c_str());
  World world;
  world.clients = kClients;
  world.pop = MakePopulation(args.seed, Sizes());
  const Sizes& sz = world.pop.sizes;
  world.writer_lo = sz.employees - sz.employees / 10;
  world.owned_hi = sz.employees * 3 / 4;
  world.hot = sz.employees - 1;
  world.wrong_answer = args.wrong_answer;
  if (!durable) BuildDashboardPool(&world, args.seed);
  // Self-test: one expected answer gains a row the engine never returns.
  if (!durable && args.wrong_answer) world.pool_expect[0].rows.insert("'no such row'");

  const std::string root = args.work + "/" + args.workload;
  const std::string dir = root + "/primary";
  std::unique_ptr<Stack> stack;
  SetupTimes setup;
  auto definitions = [&](Stack* s) -> Status {
    if (!durable) return Status::OK();
    Session session = s->engine().OpenSession();
    for (const char* def :
         {"constraint positive-pay on employee always x.salary > 0",
          "trigger stamp on create of employee do update $self set office = 'new'"}) {
      Result<std::string> r = session.Execute(def);
      if (!r.ok()) return r.status();
    }
    return Status::OK();
  };
  Status set_up = SetupServed(world, dir, args.trace, &stack, &setup, definitions);
  if (!set_up.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", set_up.ToString().c_str());
    return 1;
  }
  const uint64_t snapshot_bytes = FileBytes(stack->snapshot_path());
  std::printf("setup: %d employees, %d managers, %d projects, %zu statements, "
              "T0=%lld, snapshot %llu bytes\n",
              sz.employees, sz.managers, sz.projects, world.pop.statements.size(),
              static_cast<long long>(world.pop.now),
              static_cast<unsigned long long>(snapshot_bytes));

  // kColdRepeats cold replicas catch up from the served primary (checkpoint
  // image plus the journal so far), and as many cold recoveries run on
  // copies of its files; replica_catchup_s and recovery_s are their
  // medians. Each replica's state must hash like the primary's.
  CatchUp catchup;
  std::vector<double> catchups, recoveries;
  {
    Result<uint32_t> primary_hash = EngineHash(stack->engine());
    for (int i = 0; i < kColdRepeats; ++i) {
      Status caught = CatchUpReplica(stack.get(), root + "/replica", args.trace, &catchup);
      report.Check(caught.ok(), "replica catch-up: " + caught.ToString());
      report.Check(caught.ok() && primary_hash.ok() && catchup.hash == primary_hash.value(),
                   "replica hash differs from the primary's");
      catchups.push_back(catchup.catchup_s);
      Status copied = CopyDir(dir, root + "/copy");
      Stack copy(root + "/copy", false);
      BootTimes boot;
      Status recovered = copied.ok() ? copy.Recover(true, &boot) : copied;
      report.Check(recovered.ok(), "recovery of a copy: " + recovered.ToString());
      recoveries.push_back(boot.recovery_s);
    }
  }

  // The footprint of the served database after set-up. Growth during the
  // closed loop tracks how many statements the window completed, so it
  // is printed in the run report but not used as the bounded metric.
  const double peak_rss_mib = PeakRssMiB();

  // The index reads must really be index probes.
  if (!durable) {
    Session s = stack->engine().OpenSession();
    for (size_t i = 0; i < world.pool_text.size(); ++i) {
      if (world.pool_shape[i] != kIndexSelect) continue;
      Result<std::string> plan = s.Execute("explain " + world.pool_text[i]);
      report.Check(plan.ok() && plan.value().find("access: index") != std::string::npos,
                   "not an index probe: " + world.pool_text[i]);
    }
  }

  std::vector<std::unique_ptr<Actor>> actors;
  for (int c = 0; c < world.clients; ++c) {
    if (durable) actors.push_back(std::make_unique<DurableActor>(&world, c, args.seed));
    else actors.push_back(std::make_unique<DashboardActor>(&world, c, args.seed));
  }
  Engine& engine = stack->engine();
  const tchimera::PlanCache::Stats cache0 = engine.plan_cache().stats();
  const uint64_t conflicts0 = engine.conflict_count();
  const uint64_t enq0 = stack->sink().enqueued();
  const uint64_t batches0 = stack->sink().batches();
  const uint64_t journal0 = FileBytes(stack->journal_path());

  LoopOutcome loop = RunClosedLoop(stack->server().port(), actors, args.seconds,
                                   args.trace, &report);
  const double load_rss_mib = PeakRssMiB();
  std::vector<Span> load_spans = Tracer::Get().Take();

  const tchimera::PlanCache::Stats cache1 = engine.plan_cache().stats();
  const uint64_t commits = stack->sink().enqueued() - enq0;
  const uint64_t batches = stack->sink().batches() - batches0;
  const uint64_t conflicts = engine.conflict_count() - conflicts0;
  const tchimera::ServerStats& ss = stack->server().stats();
  const uint64_t admission = ss.admission_rejections.load();
  const uint64_t conflict_retries = ss.conflict_retries.load();
  const uint64_t exhausted = ss.conflict_budget_exhausted.load();

  // Traced run: samples of every statement shape, in process.
  ReadSamples rs;
  WriteSamples ws;
  if (args.trace) {
    Tracer::Get().set_enabled(true);
    Session session = engine.OpenSession();
    Session walker = engine.OpenSession();
    walker.set_compile_enabled(false);
    Result<std::unique_ptr<Client>> client =
        Client::Connect("127.0.0.1", stack->server().port());
    report.Check(client.ok(), "sampler connect");
    std::unique_ptr<Actor> sampler;
    if (durable) sampler = std::make_unique<DurableActor>(&world, world.clients, args.seed);
    else sampler = std::make_unique<DashboardActor>(&world, world.clients, args.seed);
    const int64_t now = world.pop.now + world.ticks.load();
    if (!durable) {
      for (int rep = 0; rep < 10; ++rep) {
        for (size_t i = 0; i < world.pool_text.size(); ++i) {
          Op op;
          op.text = world.pool_text[i];
          op.shape = world.pool_shape[i];
          op.expect = &world.pool_expect[i];
          SampleRead(&engine, &session, &walker,
                     client.ok() ? client.value().get() : nullptr, op, now, &rs, &report);
        }
      }
      for (int i = 0; i < 50; ++i) SampleWrite(&session, sampler.get(), kUpdate, &ws, &report);
    } else {
      for (int i = 0; i < 200; ++i) {
        Op op;
        sampler->Make(kRead, &op);
        SampleRead(&engine, &session, &walker,
                   client.ok() ? client.value().get() : nullptr, op, now, &rs, &report);
      }
      for (int kind : {kUpdate, kCorrect, kCreate, kMigrate, kTick}) {
        for (int i = 0; i < 30; ++i) SampleWrite(&session, sampler.get(), kind, &ws, &report);
      }
    }
    Tracer::Get().set_enabled(false);
    actors.push_back(std::move(sampler));
  }
  std::vector<Span> sample_spans = Tracer::Get().Take();

  const int64_t checks_start = NowNs();
  // Post-run model checks, through a client.
  uint64_t check_reads = 0;
  {
    Result<std::unique_ptr<Client>> connected =
        Client::Connect("127.0.0.1", stack->server().port());
    if (!connected.ok()) {
      report.Fail("check connect");
    } else {
      Client* client = connected.value().get();
      const int64_t now = world.pop.now + world.ticks.load();
      Result<std::string> shown = client->Execute("show now");
      ++check_reads;
      report.Check(shown.ok() && shown.value() == "now = " + std::to_string(now),
                   "clock: expected now = " + std::to_string(now));
      std::set<std::string> managers;
      for (int m = 0; m < sz.managers; ++m) {
        managers.insert(world.pop.objects[sz.employees + m].oid);
      }
      std::vector<std::optional<int64_t>> hot_last;
      for (auto& d : actors) {
        if (durable) {
          auto* dd = static_cast<DurableActor*>(d.get());
          CheckOwnedHistories(client, dd->owned(), world.pop, now, &report, &check_reads);
          for (const Owned& o : dd->owned()) {
            if (o.cls == kManager) managers.insert(world.pop.objects[o.k].oid);
          }
          for (const Created& c : dd->created()) {
            Result<std::string> snap = client->Execute("snapshot " + c.oid);
            ++check_reads;
            Expect e;
            e.kind = Expect::Kind::kSnapshot;
            e.fields = {{"name", Quote(c.name)}, {"birthyear", "1999"},
                        {"salary", std::to_string(c.salary)}, {"office", "'new'"}};
            std::string why;
            report.Check(snap.ok() && Matches(e, snap.value(), now, &why),
                         "created " + c.oid + ": " + why);
          }
          hot_last.push_back(dd->hot_last());
        } else {
          auto* dd = static_cast<DashboardActor*>(d.get());
          CheckOwnedHistories(client, dd->owned(), world.pop, now, &report, &check_reads);
        }
      }
      Result<std::string> mgr = client->Execute("select x from x in manager");
      ++check_reads;
      std::multiset<std::string> want(managers.begin(), managers.end());
      report.Check(mgr.ok() && RowSet(mgr.value()) == want, "manager extent differs");
      if (durable) {
        // The hot object ends at some client's last acknowledged value.
        Result<std::string> h = client->Execute(
            "history " + world.pop.objects[world.hot].oid + ".salary");
        ++check_reads;
        std::set<int64_t> allowed;
        for (auto& v : hot_last) {
          if (v.has_value()) allowed.insert(*v);
        }
        if (allowed.empty()) allowed.insert(*world.pop.objects[world.hot].salary.Last());
        std::vector<Segment> segs;
        report.Check(h.ok() && ParseHistory(h.value(), now, &segs) && !segs.empty() &&
                         allowed.count(segs.back().v) == 1,
                     "hot object's final salary is no client's last write");
      }
    }
  }

  // Recovery from disk must reproduce the live engine's state hash.
  Result<uint32_t> live_hash = EngineHash(engine);
  report.Check(live_hash.ok(), "live hash");
  stack->StopServing();
  const uint64_t journal_bytes = FileBytes(stack->journal_path()) - journal0;
  stack->Shutdown();
  const int64_t recovery_start = NowNs();
  BootTimes after;
  {
    Stack recovered(dir, false);
    Status r = recovered.Recover(false, &after);
    report.Check(r.ok(), "recovery after the run: " + r.ToString());
    if (r.ok()) {
      Result<uint32_t> h = EngineHash(recovered.engine());
      report.Check(h.ok() && live_hash.ok() && h.value() == live_hash.value(),
                   "recovered hash differs from the live engine's");
    }
  }
  {
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::remove_all(root + "/replica", ec);
    fs::remove_all(root + "/copy", ec);
  }
  std::printf("phases: post-run checks %.3f s, recovery after the run %.3f s "
              "(load %.3f, replay %.3f, audit %.3f)\n",
              Seconds(recovery_start - checks_start), Seconds(NowNs() - recovery_start),
              after.load_snapshot_s, after.replay_s, after.audit_s);

  const ThreadResult& all = loop.all;
  report.attempted = all.ops + check_reads;
  report.failed = all.failed;
  const LoadFigures fig = WindowFigures(all.samples, loop.window_s);
  const Percentiles& rp = fig.read;
  const Percentiles& wp = fig.write;
  std::printf("load: %d clients (nproc %ld), %.3f s window, %llu ops sent with "
              "warm-up and drain (%llu failed), %llu resends: %zu read samples, "
              "%zu write samples in the window\n",
              world.clients, sysconf(_SC_NPROCESSORS_ONLN), loop.window_s,
              static_cast<unsigned long long>(all.ops),
              static_cast<unsigned long long>(all.failed),
              static_cast<unsigned long long>(all.resends), rp.n, wp.n);
  std::printf("  all   reads        n=%zu p50=%.1f us p99=%.1f us\n"
              "  all   writes       n=%zu p50=%.1f us p99=%.1f us\n",
              rp.n, rp.p50_us, rp.p99_us, wp.n, wp.p50_us, wp.p99_us);
  std::map<std::pair<int, int>, std::vector<int64_t>> by_kind;
  for (const Sample& s : all.samples) {
    by_kind[{s.kind, s.kind == kRead ? s.shape : 0}].push_back(s.dt_ns);
  }
  for (auto& [key, v] : by_kind) {
    Percentiles p = Pct(std::move(v));
    std::printf("  %-5s %-12s n=%zu p50=%.1f us p99=%.1f us\n",
                key.first == kRead ? "read" : "write",
                key.first == kRead ? kShapeNames[key.second] : kOpNames[key.first], p.n,
                p.p50_us, p.p99_us);
  }
  std::printf("checks: %llu post-run reads; cold replica catch-up %.3f s and cold "
              "recovery %.3f s (medians of %d); post-run replay of %zu statements %.3f s\n",
              static_cast<unsigned long long>(check_reads), Median(catchups), kColdRepeats,
              Median(recoveries), after.replayed, after.replay_s);
  std::printf("memory: peak RSS %.1f MiB after set-up, %.1f MiB after the load\n",
              peak_rss_mib, load_rss_mib);

  if (!args.trace) {
    report.Metric("setup_s", Median(setup.setup_s), "s");
    report.Metric("throughput_ops_s", fig.throughput, "statements/s");
    report.Metric("read_p50_us", rp.p50_us, "us");
    report.Metric("read_p99_us", rp.p99_us, "us");
    report.Metric("write_p50_us", wp.p50_us, "us");
    report.Metric("recovery_s", Median(recoveries), "s");
    report.Metric("replica_catchup_s", Median(catchups), "s");
    report.Metric("journal_bytes_per_write",
                  commits > 0 ? static_cast<double>(journal_bytes) / commits : 0.0, "B");
    report.Metric("snapshot_bytes", static_cast<double>(snapshot_bytes), "B");
    report.Metric("peak_rss_mib", peak_rss_mib, "MiB");
  } else {
    double traced_total = loop.parity_s[1] * world.clients;
    SelfTimes st = ComputeSelfTimes(load_spans, loop.traced_windows,
                                    "client.round_trip", traced_total);
    PrintSelfTimes(args.workload, st,
                   {{"client.round_trip",
                     "server+query+core.db (round trip minus sink)"}});
    std::vector<Span> spans = load_spans;
    spans.insert(spans.end(), sample_spans.begin(), sample_spans.end());
    WriteSpans(root + "/spans.tsv", spans);
    std::printf("spans: %zu written to %s/spans.tsv\n", spans.size(), root.c_str());
    // Per-statement wall time of each slice; the overhead is the median
    // traced slice minus the median untraced one.
    std::vector<uint64_t> slice_ops(loop.slice_s.size(), 0);
    for (const Sample& s : all.samples) {
      if (s.slice < slice_ops.size()) ++slice_ops[s.slice];
    }
    std::vector<double> per_op[2];
    for (size_t i = 0; i < loop.slice_s.size(); ++i) {
      if (slice_ops[i] == 0) continue;
      per_op[i & 1].push_back(loop.slice_s[i] * world.clients * 1e6 / slice_ops[i]);
    }
    const double per_op_traced = Median(per_op[1]);
    const double per_op_untraced = Median(per_op[0]);
    std::printf("tracing overhead: %.3f us/op (traced %.3f, untraced %.3f)\n",
                per_op_traced - per_op_untraced, per_op_traced, per_op_untraced);
    const uint64_t lookups = (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
    report.Metric("server.overhead_us", Median(rs.rtt_us) - Median(rs.session_us), "us");
    report.Metric("server.admission_rejections", static_cast<double>(admission), "count");
    report.Metric("server.conflict_retries_per_1k",
                  commits > 0 ? 1000.0 * conflict_retries / commits : 0.0, "per_1k_writes");
    report.Metric("server.conflict_budget_exhausted", static_cast<double>(exhausted), "count");
    report.Metric("client.retries_absorbed", static_cast<double>(all.retries_absorbed), "count");
    AddPerLayerCommon(&report, rs, ws);
    report.Metric("query.plan_cache_hits", static_cast<double>(cache1.hits - cache0.hits), "count");
    report.Metric("query.plan_cache_lookups", static_cast<double>(lookups), "count");
    report.Metric("query.plan_cache_hit_ratio",
                  lookups > 0 ? static_cast<double>(cache1.hits - cache0.hits) / lookups : 0.0,
                  "ratio");
    report.Metric("query.walker_reads", static_cast<double>(all.walker_reads), "count");
    report.Metric("core.db.conflicts_per_1k_commits",
                  commits > 0 ? 1000.0 * conflicts / commits : 0.0, "per_1k_commits");
    report.Metric("core.db.audit_s", Median(setup.audit_s), "s");
    report.Metric("storage.group_commit.enqueue_us",
                  Mean(st.dur_us["storage.group_commit.enqueue"]), "us");
    report.Metric("storage.group_commit.await_us",
                  Mean(st.dur_us["storage.group_commit.await"]), "us");
    report.Metric("storage.group_commit.writes_per_sync",
                  batches > 0 ? static_cast<double>(commits) / batches : 0.0, "writes/sync");
    report.Metric("storage.journal.sync_us", Mean(st.dur_us["storage.journal.sync"]), "us");
    report.Metric("storage.recovery.load_snapshot_s", Median(setup.load_snapshot_s), "s");
    report.Metric("storage.recovery.replay_us_per_stmt",
                  after.replayed > 0 ? after.replay_s * 1e6 / after.replayed : 0.0, "us");
    report.Metric("storage.serializer.checkpoint_s", Median(setup.checkpoint_s), "s");
    report.Metric("storage.replication.install_checkpoint_s", catchup.install_s, "s");
    report.Metric("storage.replication.apply_s", catchup.apply_s, "s");
    report.Metric("process.cpu_us_per_op",
                  all.samples.empty() ? 0.0 : loop.cpu_s * 1e6 / all.samples.size(), "us");
    report.Metric("trace.overhead_us_per_op", per_op_traced - per_op_untraced, "us");
  }
  std::printf("%s\n", report.Json().c_str());
  return report.correct ? 0 : 1;
}


// --- restart_replay ---------------------------------------------------------------

// The journal replayed on restart: a fixed number of generated statements
// over objects [owned_hi, employees - 1), with the exact model state and
// answer each one implies (single-threaded, so `now` is known exactly).
struct RestartScript {
  std::vector<std::string> statements;
  std::vector<std::string> answers;
  std::vector<ObjectModel> objects;  // population objects, then created ones
  int64_t now = 0;
};

constexpr int kRestartStatements = 1000;

RestartScript MakeRestartScript(const World& w, uint64_t seed) {
  RestartScript rs;
  rs.objects = w.pop.objects;
  rs.now = w.pop.now;
  uint64_t next_oid = w.pop.next_oid;
  Rng rng(seed * 7 + 3);
  const int lo = w.owned_hi, hi = w.pop.sizes.employees - 2;
  // Exact shares, in a seeded order: 10% ticks, 40% updates, 20%
  // corrections, 20% migrations, 10% creates.
  std::vector<int> kinds;
  for (int i = 0; i < kRestartStatements; ++i) {
    const int slot = i % 10;
    kinds.push_back(slot == 0 ? kTick
                    : slot <= 4 ? kUpdate
                    : slot <= 6 ? kCorrect
                    : slot <= 8 ? kMigrate
                                : kCreate);
  }
  for (size_t i = kinds.size(); i > 1; --i) std::swap(kinds[i - 1], kinds[rng.Uniform(i)]);
  for (int i = 0; i < kRestartStatements; ++i) {
    const int kind = kinds[i];
    const int k = static_cast<int>(rng.Range(lo, hi));
    ObjectModel& o = rs.objects[k];
    const int64_t v = 70'000'000 + i;
    if (kind == kTick) {
      rs.now += 1;
      rs.statements.push_back("tick");
      rs.answers.push_back("now = " + std::to_string(rs.now));
    } else if (kind == kUpdate) {
      o.salary.SetFrom(rs.now, v);
      rs.statements.push_back("update " + o.oid + " set salary = " + std::to_string(v));
      rs.answers.push_back("ok");
    } else if (kind == kCorrect) {
      const int64_t a = rng.Range(0, w.pop.now - 1);
      const int64_t b = std::min(w.pop.now - 1, a + rng.Range(0, 4));
      o.salary.SetRange(a, b, v);
      rs.statements.push_back("update " + o.oid + " set salary = " + std::to_string(v) +
                              " during [" + std::to_string(a) + "," + std::to_string(b) + "]");
      rs.answers.push_back("ok");
    } else if (kind == kMigrate) {
      const bool promote = *o.cls.Last() == kEmployee;
      o.cls.SetFrom(rs.now, promote ? kManager : kEmployee);
      rs.statements.push_back("migrate " + o.oid + " to " +
                              (promote ? "manager set dependents = 1" : "employee"));
      rs.answers.push_back("ok");
    } else {
      ObjectModel c;
      c.oid = "i" + std::to_string(next_oid++);
      c.name = "r" + std::to_string(i);
      c.created = rs.now;
      c.salary.SetFrom(rs.now, v);
      c.cls.SetFrom(rs.now, kEmployee);
      rs.statements.push_back("create employee (name: '" + c.name +
                              "', birthyear: 1999, salary: " + std::to_string(v) +
                              ", office: 'B0')");
      rs.answers.push_back(c.oid);
      rs.objects.push_back(std::move(c));
    }
  }
  return rs;
}

struct CheckRead {
  std::string text;
  int shape = kHistory;
  Expect expect;
};

// Sampled histories (exact over each object's whole life) and the member
// sets of both classes at several instants.
std::vector<CheckRead> RestartChecks(const RestartScript& rs, const World& w,
                                     uint64_t seed) {
  std::vector<CheckRead> out;
  Rng rng(seed * 11 + 9);
  const int pop_n = w.pop.sizes.employees + w.pop.sizes.managers;
  for (int i = 0; i < 400; ++i) {
    // Half the samples from the journal's objects, half from anywhere.
    int k = i % 2 == 0 ? static_cast<int>(rng.Range(w.owned_hi, rs.objects.size() - 1))
                       : static_cast<int>(rng.Uniform(rs.objects.size()));
    if (k >= pop_n && k < w.owned_hi) k = w.owned_hi;
    const ObjectModel& o = rs.objects[k];
    CheckRead c;
    c.text = "history " + o.oid + ".salary";
    c.expect.kind = Expect::Kind::kHistory;
    c.expect.history = o.salary;
    c.expect.from = o.created;
    c.expect.to = rs.now;
    out.push_back(std::move(c));
  }
  for (int64_t t : {int64_t{0}, w.pop.now / 2, w.pop.now - 1, w.pop.now,
                    (w.pop.now + rs.now) / 2, rs.now}) {
    for (int cls : {kEmployee, kManager}) {
      CheckRead c;
      c.shape = kScan;
      c.text = std::string("select x from x in ") +
               (cls == kEmployee ? "employee" : "manager") + " at " + std::to_string(t);
      c.expect.kind = Expect::Kind::kRows;
      for (const ObjectModel& o : rs.objects) {
        std::optional<int64_t> at = o.cls.At(t);
        if (at.has_value() && (cls == kEmployee || *at == kManager)) {
          c.expect.rows.insert(o.oid);
        }
      }
      out.push_back(std::move(c));
    }
  }
  return out;
}


int RunRestart(const Args& args) {
  Report report;
  std::printf("run: %s\n", RunHeader(args).c_str());
  World world;
  world.clients = kClients;
  world.pop = MakePopulation(args.seed, Sizes());
  const Sizes& sz = world.pop.sizes;
  world.owned_hi = sz.employees * 3 / 4;
  world.hot = sz.employees - 1;
  const RestartScript script = MakeRestartScript(world, args.seed);
  std::vector<CheckRead> checks = RestartChecks(script, world, args.seed);
  // Self-test: one expected history is wrong.
  if (args.wrong_answer) checks[0].expect.history.SetFrom(checks[0].expect.from, -1);

  const std::string root = args.work + "/" + args.workload;
  const std::string base = root + "/base";
  const std::string round_dir = root + "/round";
  SetupTimes setup;
  for (int i = 0; i < kSetups; ++i) {
    FreshDir(base);
    const int64_t t0 = NowNs();
    double checkpoint_s = 0;
    Status built = BuildCheckpoint(world.pop, base, &checkpoint_s);
    Stack stack(base, false);
    BootTimes boot;
    if (built.ok()) built = stack.Recover(true, &boot);
    if (built.ok()) {
      Session session = stack.engine().OpenSession();
      for (size_t s = 0; s < script.statements.size() && built.ok(); ++s) {
        Result<std::string> r = session.Execute(script.statements[s]);
        if (!r.ok()) {
          built = r.status();
        } else if (r.value() != script.answers[s]) {
          built = Status::Internal(script.statements[s] + " answered " + r.value() +
                                   ", model " + script.answers[s]);
        }
      }
    }
    stack.Shutdown();
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", built.ToString().c_str());
      return 1;
    }
    setup.setup_s.push_back(Seconds(NowNs() - t0));
    setup.checkpoint_s.push_back(checkpoint_s);
  }
  const uint64_t snapshot_bytes = FileBytes(base + "/snapshot.tchdb");
  const uint64_t journal_bytes = FileBytes(base + "/journal.tql");
  std::printf("setup: %d employees, %d managers, %d projects, T0=%lld; journal of %d "
              "statements (%llu bytes) over a %llu-byte snapshot\n",
              sz.employees, sz.managers, sz.projects, static_cast<long long>(world.pop.now),
              kRestartStatements, static_cast<unsigned long long>(journal_bytes),
              static_cast<unsigned long long>(snapshot_bytes));

  // End-to-end figures of the untraced rounds. The read percentiles come
  // from the history reads alone; the member-set scans, a different and
  // much dearer kind of read, are timed apart and printed.
  std::vector<double> recovery_s, catchup_s, replay_rate;
  std::vector<int64_t> read_ns, scan_ns, write_ns;
  std::vector<double> load_s, audit_s, install_s, apply_s, replay_us;
  double round_s[2] = {0, 0};
  std::vector<double> round_us_per_op[2];
  uint64_t cache_hits = 0, cache_lookups = 0;
  std::vector<std::pair<int64_t, int64_t>> traced_windows;
  const double cpu0 = CpuSeconds();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(args.seconds * 1e9);
  uint64_t rounds = 0, ops = 0, failed = 0;
  // A traced run needs one untraced and one traced round at least.
  const uint64_t min_rounds = args.trace ? 2 : 1;
  while (rounds < min_rounds || NowNs() < end) {
    Status copied = CopyDir(base, round_dir);
    if (!copied.ok()) {
      report.Fail(copied.ToString());
      break;
    }
    const bool traced = args.trace && rounds % 2 == 1;
    Tracer::Get().set_enabled(traced);
    const int64_t r0 = NowNs();
    uint64_t round_op_count = 0;
    {
      ScopedSpan round_span("restart.round");
      Stack stack(round_dir, traced);
      BootTimes boot;
      Status recovered = stack.Recover(true, &boot, traced ? nullptr : &write_ns);
      if (!recovered.ok()) {
        report.Fail("recovery: " + recovered.ToString());
        break;
      }
      report.Check(boot.replayed == script.statements.size(),
                   "replayed " + std::to_string(boot.replayed) + " statements");
      std::printf("round %llu: load %.3f s, replay %.3f s, audit %.3f s, recovery %.3f s\n",
                  static_cast<unsigned long long>(rounds), boot.load_snapshot_s,
                  boot.replay_s, boot.audit_s, boot.recovery_s);
      if (!traced) {
        recovery_s.push_back(boot.recovery_s);
        replay_rate.push_back(boot.replayed / std::max(1e-9, boot.replay_s));
      }
      replay_us.push_back(boot.replay_s * 1e6 / std::max<size_t>(1, boot.replayed));
      load_s.push_back(boot.load_snapshot_s);
      audit_s.push_back(boot.audit_s);
      round_op_count += boot.replayed;
      {
        ScopedSpan span("check.reads");
        Session session = stack.engine().OpenSession();
        const tchimera::PlanCache::Stats c0 = stack.engine().plan_cache().stats();
        for (const CheckRead& c : checks) {
          const int64_t t = NowNs();
          Result<std::string> r = Status::Internal("unset");
          {
            ScopedSpan exec("query.session_execute");
            r = session.Execute(c.text);
          }
          if (!traced) (c.shape == kScan ? scan_ns : read_ns).push_back(NowNs() - t);
          std::string why;
          if (!r.ok()) {
            ++failed;
            report.Fail(c.text + ": " + r.status().ToString());
          } else if (!Matches(c.expect, r.value(), script.now, &why)) {
            ++failed;
            report.Fail(c.text + ": " + why);
          }
        }
        const tchimera::PlanCache::Stats c1 = stack.engine().plan_cache().stats();
        cache_hits += c1.hits - c0.hits;
        cache_lookups += (c1.hits - c0.hits) + (c1.misses - c0.misses);
        round_op_count += checks.size();
      }
      Result<uint32_t> primary_hash = EngineHash(stack.engine());
      CatchUp cu;
      Status caught = CatchUpReplica(&stack, root + "/replica", traced, &cu);
      report.Check(caught.ok(), "replica catch-up: " + caught.ToString());
      report.Check(caught.ok() && primary_hash.ok() && cu.hash == primary_hash.value(),
                   "replica hash differs from the primary's");
      if (traced) {
        install_s.push_back(cu.install_s);
        apply_s.push_back(cu.apply_s);
      } else {
        catchup_s.push_back(cu.catchup_s);
      }
      round_op_count += script.statements.size();
    }
    const int64_t r1 = NowNs();
    round_s[traced ? 1 : 0] += Seconds(r1 - r0);
    round_us_per_op[traced ? 1 : 0].push_back(Seconds(r1 - r0) * 1e6 / round_op_count);
    if (traced) traced_windows.push_back({r0, r1});
    ops += round_op_count;
    ++rounds;
  }
  Tracer::Get().set_enabled(false);
  const double window_s = Seconds(NowNs() - start);
  const double cpu_s = CpuSeconds() - cpu0;
  std::vector<Span> round_spans = Tracer::Get().Take();

  // Traced run: samples of every statement shape on a served, recovered
  // copy (its writes never reach the base the rounds recover from).
  ReadSamples rs;
  WriteSamples ws;
  uint64_t admission = 0, conflict_retries = 0, exhausted = 0, retries_absorbed = 0;
  uint64_t commits = 0, batches = 0, conflicts = 0;
  std::vector<Span> sample_spans;
  if (args.trace && report.correct) {
    Status copied = CopyDir(base, round_dir);
    Stack stack(round_dir, true);
    BootTimes boot;
    Status up = copied.ok() ? stack.Recover(true, &boot) : copied;
    if (up.ok()) up = stack.StartServer();
    report.Check(up.ok(), "sample stack: " + up.ToString());
    if (up.ok()) {
      Tracer::Get().set_enabled(true);
      Session session = stack.engine().OpenSession();
      Session walker = stack.engine().OpenSession();
      walker.set_compile_enabled(false);
      Result<std::unique_ptr<Client>> client =
          Client::Connect("127.0.0.1", stack.server().port());
      report.Check(client.ok(), "sampler connect");
      for (size_t i = 0; i < checks.size(); i += 4) {
        Op op;
        op.text = checks[i].text;
        op.shape = checks[i].shape;
        op.expect = &checks[i].expect;
        SampleRead(&stack.engine(), &session, &walker,
                   client.ok() ? client.value().get() : nullptr, op, script.now, &rs,
                   &report);
      }
      // Writes on objects the restart journal never touches.
      World& w = world;
      w.pop.now = script.now;
      DurableActor sampler(&w, 0, args.seed);
      const uint64_t e0 = stack.sink().enqueued(), b0 = stack.sink().batches();
      for (int kind : {kUpdate, kCorrect, kCreate, kMigrate, kTick}) {
        for (int i = 0; i < 30; ++i) SampleWrite(&session, &sampler, kind, &ws, &report);
      }
      commits = stack.sink().enqueued() - e0;
      batches = stack.sink().batches() - b0;
      conflicts = stack.engine().conflict_count();
      Tracer::Get().set_enabled(false);
      const tchimera::ServerStats& ss = stack.server().stats();
      admission = ss.admission_rejections.load();
      conflict_retries = ss.conflict_retries.load();
      exhausted = ss.conflict_budget_exhausted.load();
      if (client.ok()) retries_absorbed = client.value()->retries_absorbed();
    }
    sample_spans = Tracer::Get().Take();
  }
  std::error_code ec;
  fs::remove_all(round_dir, ec);
  fs::remove_all(root + "/replica", ec);

  report.attempted = ops;
  report.failed = failed;
  Percentiles rp = Pct(read_ns), sp = Pct(scan_ns), wp = Pct(write_ns);
  std::printf("load: %llu rounds in %.3f s, %llu ops; figures from the %zu untraced "
              "rounds: %zu history read samples, %zu replayed statement samples\n",
              static_cast<unsigned long long>(rounds), window_s,
              static_cast<unsigned long long>(ops), recovery_s.size(), rp.n, wp.n);
  std::printf("  member-set scans (not in read_p50/p99): n=%zu p50=%.1f us p99=%.1f us\n",
              sp.n, sp.p50_us, sp.p99_us);
  std::printf("  replayed statements: n=%zu p50=%.1f us p99=%.1f us\n", wp.n, wp.p50_us,
              wp.p99_us);
  if (!args.trace) {
    report.Metric("setup_s", Median(setup.setup_s), "s");
    report.Metric("throughput_ops_s", Median(replay_rate), "statements/s");
    report.Metric("read_p50_us", rp.p50_us, "us");
    report.Metric("read_p99_us", rp.p99_us, "us");
    report.Metric("write_p50_us", wp.p50_us, "us");
    report.Metric("recovery_s", Median(recovery_s), "s");
    report.Metric("replica_catchup_s", Median(catchup_s), "s");
    report.Metric("journal_bytes_per_write",
                  static_cast<double>(journal_bytes) / kRestartStatements, "B");
    report.Metric("snapshot_bytes", static_cast<double>(snapshot_bytes), "B");
    report.Metric("peak_rss_mib", PeakRssMiB(), "MiB");
  } else {
    SelfTimes st = ComputeSelfTimes(round_spans, traced_windows, "restart.round",
                                    round_s[1]);
    PrintSelfTimes(args.workload, st,
                   {{"restart.round", "copy, teardown and benchmark bookkeeping"},
                    {"query.session_execute",
                     "query+core.db (Session::Execute of replayed/check statements)"}});
    std::vector<Span> spans = round_spans;
    spans.insert(spans.end(), sample_spans.begin(), sample_spans.end());
    WriteSpans(root + "/spans.tsv", spans);
    std::printf("spans: %zu written to %s/spans.tsv\n", spans.size(), root.c_str());
    const double per_op_traced = Median(round_us_per_op[1]);
    const double per_op_untraced = Median(round_us_per_op[0]);
    std::printf("tracing overhead: %.3f us/op (traced %.3f, untraced %.3f)\n",
                per_op_traced - per_op_untraced, per_op_traced, per_op_untraced);
    SelfTimes samples = ComputeSelfTimes(sample_spans, {{0, INT64_MAX}},
                                         "sample.session_write", 0);
    report.Metric("server.overhead_us", Median(rs.rtt_us) - Median(rs.session_us), "us");
    report.Metric("server.admission_rejections", static_cast<double>(admission), "count");
    report.Metric("server.conflict_retries_per_1k",
                  commits > 0 ? 1000.0 * conflict_retries / commits : 0.0, "per_1k_writes");
    report.Metric("server.conflict_budget_exhausted", static_cast<double>(exhausted), "count");
    report.Metric("client.retries_absorbed", static_cast<double>(retries_absorbed), "count");
    AddPerLayerCommon(&report, rs, ws);
    report.Metric("query.plan_cache_hits", static_cast<double>(cache_hits), "count");
    report.Metric("query.plan_cache_lookups", static_cast<double>(cache_lookups), "count");
    report.Metric("query.plan_cache_hit_ratio",
                  cache_lookups > 0 ? static_cast<double>(cache_hits) / cache_lookups : 0.0,
                  "ratio");
    report.Metric("query.walker_reads", 0.0, "count");
    report.Metric("core.db.conflicts_per_1k_commits",
                  commits > 0 ? 1000.0 * conflicts / commits : 0.0, "per_1k_commits");
    report.Metric("core.db.audit_s", Median(audit_s), "s");
    report.Metric("storage.group_commit.enqueue_us",
                  Mean(samples.dur_us["storage.group_commit.enqueue"]), "us");
    report.Metric("storage.group_commit.await_us",
                  Mean(samples.dur_us["storage.group_commit.await"]), "us");
    report.Metric("storage.group_commit.writes_per_sync",
                  batches > 0 ? static_cast<double>(commits) / batches : 0.0, "writes/sync");
    report.Metric("storage.journal.sync_us", Mean(samples.dur_us["storage.journal.sync"]), "us");
    report.Metric("storage.recovery.load_snapshot_s", Median(load_s), "s");
    report.Metric("storage.recovery.replay_us_per_stmt", Median(replay_us), "us");
    report.Metric("storage.serializer.checkpoint_s", Median(setup.checkpoint_s), "s");
    report.Metric("storage.replication.install_checkpoint_s", Median(install_s), "s");
    report.Metric("storage.replication.apply_s", Median(apply_s), "s");
    report.Metric("process.cpu_us_per_op", ops > 0 ? cpu_s * 1e6 / ops : 0.0, "us");
    report.Metric("trace.overhead_us_per_op", per_op_traced - per_op_untraced, "us");
  }
  std::printf("%s\n", report.Json().c_str());
  return report.correct ? 0 : 1;
}


// --- sizing figures -------------------------------------------------------------

// A database of `sizes` loaded through an Interpreter (the value index
// only when `with_index`), wrapped in an in-memory Engine.
std::unique_ptr<Engine> SizedEngine(const Sizes& sizes, bool with_index) {
  Population pop = MakePopulation(1, sizes);
  auto db = std::make_unique<Database>();
  tchimera::Interpreter interp(db.get());
  for (const std::string& s : pop.schema) (void)interp.Execute(s);
  for (const std::string& s : pop.statements) {
    if (!with_index && s.rfind("create index", 0) == 0) continue;
    (void)interp.Execute(s);
  }
  return std::make_unique<Engine>(std::move(db));
}

// Median µs of `n` executions of gen(i) through one Session.
double MedianExecuteUs(Session* session, int n,
                       const std::function<std::string(int)>& gen, bool* ok) {
  std::vector<double> us;
  for (int i = 0; i < n; ++i) {
    const std::string text = gen(i);
    const int64_t t = NowNs();
    Result<std::string> r = session->Execute(text);
    us.push_back(Micros(NowNs() - t));
    if (!r.ok()) *ok = false;
  }
  return Median(us);
}

// Re-measures the per-statement costs that sized the workloads (README,
// "Reference figures"), each through Session::Execute, median of 200.
int RunSizing(const Args& args) {
  bool ok = true;
  auto create = [](int i) {
    return "create employee (name: 's" + std::to_string(i) +
           "', birthyear: 1990, salary: 5, office: 'B0')";
  };
  auto update = [](int i) {
    return "update i" + std::to_string(1 + (i * 37) % 1000) + " set salary = " +
           std::to_string(90'000'000 + i);
  };
  for (int extent : {1000, 4000}) {
    std::unique_ptr<Engine> engine = SizedEngine(Sizes{extent, 1, 0, 0}, false);
    Session session = engine->OpenSession();
    std::printf("create employee at %d employees: %.1f us\n", extent,
                MedianExecuteUs(&session, 200, create, &ok));
  }
  for (bool index : {false, true}) {
    // 30 rounds of half-updates: about 16 segments per object.
    std::unique_ptr<Engine> engine = SizedEngine(Sizes{5000, 1, 0, 30}, index);
    Session session = engine->OpenSession();
    std::printf("salary update at 5000 employees x ~16 segments, %s index: %.1f us\n",
                index ? "with" : "without", MedianExecuteUs(&session, 200, update, &ok));
  }
  {
    const std::string dir = args.work + "/sizing";
    FreshDir(dir);
    Population pop = MakePopulation(1, Sizes{4000, 1, 0, 0});
    double checkpoint_s = 0;
    Status built = BuildCheckpoint(pop, dir, &checkpoint_s);
    Stack stack(dir, false);
    BootTimes boot;
    if (built.ok()) built = stack.Recover(true, &boot);
    if (built.ok()) {
      Session session = stack.engine().OpenSession();
      std::printf("lone durable salary update at 4000 employees (one fdatasync each): "
                  "%.1f us\n", MedianExecuteUs(&session, 200, update, &ok));
    }
    stack.Shutdown();
    // Replay with the value index over a larger, longer population.
    FreshDir(dir);
    Population big = MakePopulation(1, Sizes{20000, 1, 0, 62});
    if (built.ok()) built = BuildCheckpoint(big, dir, &checkpoint_s);
    if (built.ok()) {
      Stack writer(dir, false);
      built = writer.Recover(true, &boot);
      if (built.ok()) {
        Session session = writer.engine().OpenSession();
        for (int i = 0; i < 2000; ++i) (void)session.Execute(update(i));
      }
    }
    if (built.ok()) {
      Stack replayer(dir, false);
      built = replayer.Recover(false, &boot);
      std::printf("replay at 20000 employees x ~32 segments with the index: %.1f us per "
                  "statement (%zu statements in %.3f s)\n",
                  boot.replay_s * 1e6 / std::max<size_t>(1, boot.replayed), boot.replayed,
                  boot.replay_s);
    }
    if (!built.ok()) {
      std::fprintf(stderr, "sizing: %s\n", built.ToString().c_str());
      ok = false;
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace tqlbench

int main(int argc, char** argv) {
  using tqlbench::Args;
  tchimera::IgnoreSigpipe();
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") args.workload = value();
    else if (a == "--seed") args.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") args.seconds = std::atof(value().c_str());
    else if (a == "--trace") args.trace = value() == "1";
    else if (a == "--work") args.work = value();
    else if (a == "--sizing") args.sizing = true;
    else if (a == "--wrong-answer") args.wrong_answer = true;
    else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  tqlbench::PinToOneCpu();
  if (args.sizing) return tqlbench::RunSizing(args);
  if (args.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  if (args.workload == "dashboard_reads" || args.workload == "durable_writes") {
    return tqlbench::RunServed(args);
  }
  if (args.workload == "restart_replay") return tqlbench::RunRestart(args);
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
