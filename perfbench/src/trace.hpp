#pragma once

// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own files around calls into the program's public functions
// (never inside the program), kept in per-thread buffers, and written out
// once when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";   ///< "<layer>.<call>"; string literal.
  double startUs = 0.0;    ///< From the tracer's start.
  double endUs = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< Enclosing span on the same thread, or -1.
  std::int64_t query = -1;   ///< Request id shared by one query's spans.
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Times one call. The duration is always measured (metrics need it in
  /// untraced runs too); the span is recorded only when tracing is on.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::int64_t query = -1);
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Closes the span (once) and returns its duration in microseconds.
    double stop();

   private:
    Tracer& tracer_;
    const char* name_;
    std::int64_t query_;
    std::int64_t id_ = -1;
    std::int64_t parent_ = -1;
    std::chrono::steady_clock::time_point start_;
    double us_ = -1.0;
  };

  /// Every span recorded so far, all threads merged, by start time.
  std::vector<Span> spans() const;
  /// Self time per layer (the name up to the first '.'), in milliseconds:
  /// each span's duration minus the part its child spans cover.
  std::map<std::string, double> selfMsByLayer() const;
  /// Writes one JSON object per span. Returns false when the file cannot
  /// be written.
  bool writeJsonLines(const std::string& path) const;

 private:
  struct Buffer {
    int thread = 0;
    std::int64_t nextSeq = 0;
    std::vector<Span> spans;
    std::vector<std::int64_t> open;  ///< Stack of open span ids.
  };
  Buffer& local();

  bool enabled_;
  std::uint64_t serial_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;  ///< Guards buffers_ (registration and merging).
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace perfbench
