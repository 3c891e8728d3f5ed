#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_tracerSerial{0};

/// The calling thread's buffer in the tracer with serial `serial`. Serials
/// are process-unique, so a slot never outlives its tracer's identity.
struct ThreadSlot {
  std::uint64_t serial = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot t_slot;

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled),
      serial_(++g_tracerSerial),
      origin_(std::chrono::steady_clock::now()) {}

Tracer::Buffer& Tracer::local() {
  if (t_slot.buffer != nullptr && t_slot.serial == serial_) {
    return *static_cast<Buffer*>(t_slot.buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto buf = std::make_unique<Buffer>();
  buf->thread = static_cast<int>(buffers_.size());
  buffers_.push_back(std::move(buf));
  t_slot.serial = serial_;
  t_slot.buffer = buffers_.back().get();
  return *buffers_.back();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::int64_t query)
    : tracer_(tracer), name_(name), query_(query) {
  if (tracer_.enabled_) {
    Buffer& b = tracer_.local();
    id_ = (static_cast<std::int64_t>(b.thread) << 40) | b.nextSeq++;
    parent_ = b.open.empty() ? -1 : b.open.back();
    b.open.push_back(id_);
  }
  start_ = std::chrono::steady_clock::now();
}

double Tracer::Scope::stop() {
  if (us_ >= 0.0) return us_;
  const auto end = std::chrono::steady_clock::now();
  us_ = std::chrono::duration<double, std::micro>(end - start_).count();
  if (tracer_.enabled_) {
    Buffer& b = tracer_.local();
    Span s;
    s.name = name_;
    s.startUs = std::chrono::duration<double, std::micro>(start_ - tracer_.origin_).count();
    s.endUs = s.startUs + us_;
    s.id = id_;
    s.parent = parent_;
    s.query = query_;
    b.spans.push_back(s);
    if (!b.open.empty() && b.open.back() == id_) b.open.pop_back();
  }
  return us_;
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.startUs != b.startUs ? a.startUs < b.startUs : a.id < b.id;
  });
  return all;
}

std::map<std::string, double> Tracer::selfMsByLayer() const {
  const auto all = spans();
  std::unordered_map<std::int64_t, std::vector<const Span*>> children;
  for (const auto& s : all) {
    if (s.parent >= 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self;
  for (const auto& s : all) {
    // Union of the child intervals clipped to this span (children of one
    // span run on its thread, so they are ordered by start already).
    double covered = 0.0;
    double reach = s.startUs;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const double lo = std::max(c->startUs, reach);
        const double hi = std::min(c->endUs, s.endUs);
        if (hi > lo) {
          covered += hi - lo;
          reach = hi;
        }
      }
    }
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    self[layer] += 1e-3 * std::max(0.0, (s.endUs - s.startUs) - covered);
  }
  return self;
}

bool Tracer::writeJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& s : spans()) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, \"id\": %lld, "
                 "\"parent\": %lld, \"query\": %lld}\n",
                 s.name, s.startUs, s.endUs, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), static_cast<long long>(s.query));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
