#include "spans.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <unordered_map>

#include "util.h"

namespace perfbench {

namespace {
/// The calling thread's innermost open ScopedSpan.
thread_local const Span* t_current = nullptr;
}  // namespace

const Span* current_span() { return t_current; }

SpanBuffer::SpanBuffer() {
  for (auto& shard : shards_) shard = std::make_unique<Shard>();
}

void SpanBuffer::record(const Span& span) {
  Shard& shard = *shards_[thread_index() % kShards];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  shard.spans.push_back(span);
}

std::vector<Span> SpanBuffer::spans() const {
  std::vector<Span> all;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    all.insert(all.end(), shard->spans.begin(), shard->spans.end());
  }
  return all;
}

std::vector<double> SpanBuffer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans()) {
    if (name == span.name) out.push_back(static_cast<double>(span.duration_ns()));
  }
  return out;
}

std::vector<SpanBuffer::SelfTime> SpanBuffer::self_times() const {
  const std::vector<Span> all = spans();
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& span : all) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, SelfTime> by_name;
  for (const Span& span : all) {
    // Union of the children's intervals, clipped to the parent: children
    // that overlap each other (parallel work) are not subtracted twice.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    if (const auto it = children.find(span.id); it != children.end()) {
      for (const Span* child : it->second) {
        const std::int64_t lo = std::max(child->start_ns, span.start_ns);
        const std::int64_t hi = std::min(child->end_ns, span.end_ns);
        if (lo < hi) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t covered_ns = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered_ns += hi - from;
      reach = std::max(reach, hi);
    }
    SelfTime& entry = by_name[span.name];
    entry.name = span.name;
    ++entry.count;
    entry.total_ns += static_cast<double>(span.duration_ns());
    entry.self_ns += static_cast<double>(span.duration_ns() - covered_ns);
  }
  std::vector<SelfTime> out;
  for (auto& [name, entry] : by_name) out.push_back(entry);
  return out;
}

bool SpanBuffer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name,trace,id,parent,start_ns,end_ns\n";
  for (const Span& span : spans()) {
    out << span.name << ',' << span.trace << ',' << span.id << ',' << span.parent << ','
        << span.start_ns << ',' << span.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanBuffer* buffer, const char* name, std::uint64_t trace,
                       std::uint64_t parent)
    : buffer_(buffer) {
  if (buffer_ == nullptr) return;
  span_.name = name;
  span_.id = buffer_->next_id();
  if (parent == 0 && t_current != nullptr) {
    parent = t_current->id;
    if (trace == 0) trace = t_current->trace;
  }
  span_.trace = trace != 0 ? trace : span_.id;
  span_.parent = parent;
  enclosing_ = t_current;
  t_current = &span_;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  span_.end_ns = now_ns();
  t_current = enclosing_;
  buffer_->record(span_);
}

}  // namespace perfbench
