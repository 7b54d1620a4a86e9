// Spans recorded from the benchmark's own files, around calls into the
// engine's public API, plus the two wrappers the traced run installs:
// a CommitSink around GroupCommitJournal and a FileSystem handed to the
// journal through JournalOptions::fs.
//
// Spans are kept in memory and written to one file when the run ends.
// Recording is switched on and off at run time (the traced run
// alternates traced and untraced slices to measure its own overhead);
// when off, the wrappers forward with one relaxed load of overhead.
#ifndef TQLBENCH_TRACE_H_
#define TQLBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/fault_fs.h"
#include "query/session.h"

namespace tqlbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// FNV-1a of the statement text: the request id that joins a client's
// round-trip span to the sink and sync spans its statement causes.
inline uint64_t RequestId(std::string_view text) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h == 0 ? 1 : h;
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root (or joined later by request id)
  uint64_t request = 0;
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer* tracer = new Tracer();
    return *tracer;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

  // Spans recorded so far, and a copy of those recorded after `from`.
  size_t size() {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  std::vector<Span> Since(size_t from) {
    std::lock_guard<std::mutex> lock(mu_);
    if (from >= spans_.size()) return {};
    return std::vector<Span>(spans_.begin() + static_cast<std::ptrdiff_t>(from),
                             spans_.end());
  }

  // The innermost open span on this thread (parent of the next one).
  static uint64_t& Current() {
    thread_local uint64_t current = 0;
    return current;
  }
  static uint64_t& CurrentRequest() {
    thread_local uint64_t request = 0;
    return request;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span: records [construction, destruction) when tracing is on.
// `request` 0 inherits the enclosing span's request id on this thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0) {
    Tracer& t = Tracer::Get();
    if (!t.enabled()) return;
    active_ = true;
    span_.name = name;
    span_.id = t.NextId();
    span_.parent = Tracer::Current();
    saved_request_ = Tracer::CurrentRequest();
    span_.request = request != 0 ? request : saved_request_;
    Tracer::Current() = span_.id;
    Tracer::CurrentRequest() = span_.request;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (!active_) return;
    span_.end_ns = NowNs();
    Tracer::Current() = span_.parent;
    Tracer::CurrentRequest() = saved_request_;
    Tracer::Get().Record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  uint64_t saved_request_ = 0;
  Span span_;
};

// CommitSink wrapper: times Enqueue and Await. The statement text passed
// to Enqueue is the request id; Await only sees a ticket, so the ticket's
// sequence number is mapped back to the request.
class TracingSink final : public tchimera::CommitSink {
 public:
  explicit TracingSink(tchimera::CommitSink* base) : base_(base) {}

  Ticket Enqueue(std::string_view statement) override {
    if (!Tracer::Get().enabled()) return base_->Enqueue(statement);
    const uint64_t request = RequestId(statement);
    Ticket ticket;
    {
      ScopedSpan span("storage.group_commit.enqueue", request);
      ticket = base_->Enqueue(statement);
    }
    if (ticket.seq != 0) {
      std::lock_guard<std::mutex> lock(mu_);
      requests_[ticket.seq] = request;
    }
    return ticket;
  }

  tchimera::Status Await(Ticket ticket) override {
    uint64_t request = 0;
    if (ticket.seq != 0) {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = requests_.find(ticket.seq);
      if (it != requests_.end()) {
        request = it->second;
        requests_.erase(it);
      }
    }
    if (request == 0 || !Tracer::Get().enabled()) return base_->Await(ticket);
    ScopedSpan span("storage.group_commit.await", request);
    return base_->Await(ticket);
  }

 private:
  tchimera::CommitSink* base_;
  std::mutex mu_;
  std::unordered_map<uint64_t, uint64_t> requests_;  // ticket seq -> request
};

class TracingWritableFile final : public tchimera::WritableFile {
 public:
  explicit TracingWritableFile(std::unique_ptr<tchimera::WritableFile> base)
      : base_(std::move(base)) {}
  tchimera::Status Append(std::string_view data) override {
    ScopedSpan span("storage.journal.append");
    return base_->Append(data);
  }
  tchimera::Status Sync() override {
    ScopedSpan span("storage.journal.sync");
    return base_->Sync();
  }
  tchimera::Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<tchimera::WritableFile> base_;
};

// FileSystem wrapper: every file opened for writing is traced; all other
// operations forward to the default POSIX filesystem.
class TracingFileSystem final : public tchimera::FileSystem {
 public:
  TracingFileSystem() : base_(tchimera::FileSystem::Default()) {}

  tchimera::Result<std::unique_ptr<tchimera::WritableFile>> OpenWritable(
      const std::string& path, bool truncate) override {
    auto file = base_->OpenWritable(path, truncate);
    if (!file.ok()) return file.status();
    return std::unique_ptr<tchimera::WritableFile>(
        std::make_unique<TracingWritableFile>(std::move(file).value()));
  }
  tchimera::Status RenameFile(const std::string& from,
                              const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  tchimera::Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  tchimera::Status TruncateFile(const std::string& path,
                                uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  tchimera::Status SyncDir(const std::string& path) override {
    return base_->SyncDir(path);
  }
  tchimera::Result<std::string> ReadFileToString(
      const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  tchimera::Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  tchimera::Result<std::vector<std::string>> ListDirectory(
      const std::string& path) override {
    return base_->ListDirectory(path);
  }

 private:
  tchimera::FileSystem* base_;
};

}  // namespace tqlbench

#endif  // TQLBENCH_TRACE_H_
