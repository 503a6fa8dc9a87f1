// volley_perfbench: runs one benchmark workload and prints its report.
//
//   volley_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with every metric,
// check and the attempted/failed counts; perfbench/run.py turns it into
// the benchmark's result line. Exit code 0 means every check passed.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Where each thread's probe sums go, so the chain is never optimised away.
thread_local double probe_sink = 0.0;

double probe_chunk_ns() {
  // The salt is read through a volatile so the chain cannot be folded at
  // compile time.
  static thread_local volatile std::uint64_t salt = 0x51ed27ull;
  const std::uint64_t s = salt;
  const std::int64_t a = now_ns();
  double x = 0.0;
  for (int i = 0; i < kProbeIterations; ++i)
    x += std::sqrt(unit(mix(s, static_cast<std::uint64_t>(i))) + 1.0);
  const std::int64_t b = now_ns();
  probe_sink += x;
  return static_cast<double>(b - a);
}

double probe_for(std::int64_t ns) {
  HostSpeed speed;
  const std::int64_t until = now_ns() + ns;
  while (now_ns() < until) speed.add(probe_chunk_ns());
  return speed.close(0);
}

double HostSpeed::close(std::int64_t end) {
  // The lower quartile: a chunk that was preempted or interrupted reads
  // long, and up to three in four may be. A segment too short to hold a
  // chunk keeps the previous factor.
  const double factor = !chunks_.empty() ? quantile(chunks_, 0.25) / kProbeNominalNs
                        : !factors_.empty() ? factors_.back()
                                            : 1.0;
  chunks_.clear();
  ends_.push_back(end);
  factors_.push_back(factor);
  return factor;
}

double HostSpeed::factor_at(std::int64_t at) const {
  if (factors_.empty()) return 1.0;
  const auto it = std::upper_bound(ends_.begin(), ends_.end(), at);
  const auto i = static_cast<std::size_t>(it - ends_.begin());
  return factors_[std::min(i, factors_.size() - 1)];
}

namespace {
double clock_s(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

void pin_thread(pthread_t thread, unsigned cpu) {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % n, &set);
  pthread_setaffinity_np(thread, sizeof set, &set);
}

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double thread_cpu_s(pthread_t thread) {
  clockid_t id{};
  return pthread_getcpuclockid(thread, &id) == 0 ? clock_s(id) : 0.0;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t h = (a + 1) * 0x9e3779b97f4a7c15ull ^
                    (b + 0x2545f4914f6cdd1dull) * 0xbf58476d1ce4e5b9ull;
  h ^= h >> 31;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 28;
  return h;
}

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: volley_perfbench --workload "
               "fleet_quiet|fleet_hotspot|net_alert --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

void print_report(const Options& o, const Report& r) {
  std::printf("workload %s seed %llu trace %d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0);
  for (const Metric& m : r.metrics)
    std::printf("  %-6s %-32s %-16s %s\n", m.layer ? "layer" : "e2e",
                m.name.c_str(), fmt(m.value).c_str(), m.unit.c_str());
  for (const Metric& m : r.named)
    std::printf("  %-6s %-32s %-16s %s\n", "named", m.name.c_str(),
                fmt(m.value).c_str(), m.unit.c_str());
  for (const Check& c : r.checks)
    std::printf("  check  %-32s %s  %s\n", c.name.c_str(),
                c.ok ? "ok  " : "FAIL", c.detail.c_str());
  std::printf("  attempted %lld failed %lld valid %s %s\n",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), r.valid ? "yes" : "NO",
              r.validity_note.c_str());

  bool correct = true;
  for (const Check& c : r.checks) correct = correct && c.ok;
  std::string line = "{\"workload\":\"" + o.workload + "\",\"seed\":" +
                     std::to_string(o.seed) + ",\"correct\":" +
                     (correct ? "true" : "false") + ",\"attempted\":" +
                     std::to_string(r.attempted) + ",\"failed\":" +
                     std::to_string(r.failed) + ",\"valid\":" +
                     (r.valid ? "true" : "false") + ",\"validity_note\":\"" +
                     json_escape(r.validity_note) + "\",\"metrics\":{";
  bool first = true;
  const auto emit = [&](const Metric& m, const char* kind) {
    if (!std::isfinite(m.value)) return;
    line += (first ? "" : ",");
    first = false;
    line += "\"" + m.name + "\":{\"value\":" + fmt(m.value) +
            ",\"unit\":\"" + m.unit + "\",\"kind\":\"" + kind + "\"}";
  };
  for (const Metric& m : r.metrics) emit(m, m.layer ? "layer" : "e2e");
  for (const Metric& m : r.named) emit(m, "named");
  line += "},\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    line += (i ? "," : "");
    line += "{\"name\":\"" + c.name + "\",\"ok\":" + (c.ok ? "true" : "false") +
            ",\"detail\":\"" + json_escape(c.detail) + "\"}";
  }
  line += "]}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") o.seconds = std::strtod(value, nullptr);
    else if (key == "--trace") o.trace = std::strcmp(value, "0") != 0;
    else if (key == "--out") o.out_dir = value;
    else return usage();
  }
  if (o.seconds <= 0.0) return usage();
  try {
    Report r;
    if (o.workload == "fleet_quiet") r = run_fleet_quiet(o);
    else if (o.workload == "fleet_hotspot") r = run_fleet_hotspot(o);
    else if (o.workload == "net_alert") r = run_net_alert(o);
    else return usage();
    print_report(o, r);
    for (const Check& c : r.checks)
      if (!c.ok) return 1;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "volley_perfbench: %s\n", e.what());
    return 1;
  }
}
