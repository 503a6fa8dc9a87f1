// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent, operation id). Spans are kept in a
// vector while the workload runs and written out as JSON lines when it
// ends; self time of a span is its duration minus the time its direct
// children cover. Spans are recorded only from the benchmark's own code,
// around the calls it makes into the program.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr std::int32_t kNoParent = -1;

  struct Span {
    std::uint32_t name{0};
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
    std::int32_t parent{kNoParent};
    std::int64_t op{0};
  };

  struct Totals {
    std::int64_t count{0};
    double total_ns{0.0};
    double self_ns{0.0};
  };

  std::uint32_t intern(const std::string& name);

  /// Records a finished span and returns its index (usable as a parent).
  std::int32_t add(std::uint32_t name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent, std::int64_t op);
  /// Opens a span now; finish it with close().
  std::int32_t open(std::uint32_t name, std::int32_t parent, std::int64_t op);
  void close(std::int32_t span);

  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Count, total and self time per span name.
  std::map<std::string, Totals> totals() const;

  /// Writes one JSON object per span; false when the file cannot be made.
  bool write(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
