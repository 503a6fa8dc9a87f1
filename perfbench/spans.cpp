#include "spans.h"

#include <cstdio>
#include <filesystem>

#include "bench.h"

namespace perfbench {

std::uint32_t SpanRecorder::intern(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

std::int32_t SpanRecorder::add(std::uint32_t name, std::int64_t start_ns,
                               std::int64_t end_ns, std::int32_t parent,
                               std::int64_t op) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, op});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::int32_t SpanRecorder::open(std::uint32_t name, std::int32_t parent,
                                std::int64_t op) {
  return add(name, now_ns(), 0, parent, op);
}

void SpanRecorder::close(std::int32_t span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  // Children of one parent never overlap here (the recorder's callers are
  // sequential), so the covered time is the sum of child durations.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent)
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[names_[s.name]];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
  }
  return out;
}

bool SpanRecorder::write(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"op\":%lld}\n",
                 names_[s.name].c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.op));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
