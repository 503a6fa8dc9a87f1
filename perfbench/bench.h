// Shared pieces of the repository benchmark (see perfbench/README.md):
// command-line options, the report every workload fills in, and small
// measurement helpers. Each workload drives the program only through its
// public entry points; everything here is harness code.
#pragma once

#include <pthread.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{20.0};
  bool trace{false};
  std::string out_dir{".bench_build/out"};  // span dumps land here

  /// The traced repeat runs at most kTracedSeconds: a span per tick over a
  /// longer run would hold and write hundreds of MiB.
  static constexpr double kTracedSeconds = 8.0;
  Options traced() const {
    Options t = *this;
    t.seconds = seconds < kTracedSeconds ? seconds : kTracedSeconds;
    return t;
  }
};

/// One reported number. `layer` marks per-layer (traced-run) metrics; the
/// rest are end-to-end.
struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
  bool layer{false};
};

struct Check {
  std::string name;
  bool ok{false};
  std::string detail;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  /// Workload-specific names of the generic end-to-end metrics and other
  /// figures worth printing; shown in the table, not in the contract line.
  std::vector<Metric> named;
  std::int64_t attempted{0};
  std::int64_t failed{0};
  bool valid{true};
  std::string validity_note;

  void e2e(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit, false});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit, true});
  }
  void info(const std::string& name, double value, const std::string& unit) {
    named.push_back({name, value, unit, false});
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back({name, ok, detail});
  }
};

// --- measurement helpers ------------------------------------------------

std::int64_t now_ns();            // steady clock
double process_cpu_s();           // CLOCK_PROCESS_CPUTIME_ID
double thread_cpu_s();            // CLOCK_THREAD_CPUTIME_ID of the caller
double thread_cpu_s(pthread_t thread);  // CPU clock of another thread
double peak_rss_mb();             // VmHWM of this process, MiB

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// SplitMix64-style mixer: the benchmark's only source of randomness, so
/// one seed fixes every generated input.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);
/// Uniform double in [0, 1) from a mixed hash.
inline double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::string fmt(double value);

// --- host speed -------------------------------------------------------------
//
// The virtual machine the benchmark was built on changed speed for seconds
// to minutes at a time: every workload ran up to half again as fast, then
// went back. No steal time showed and the VM has no cycle counter, so the
// benchmark times a fixed chunk of arithmetic (a dependent chain of hashes
// and square roots, touching no memory) next to the workload and scales by
// it. The host factor of a stretch is the lower quartile of its chunk
// times over kProbeNominalNs; times measured in the stretch are divided by
// it and rates multiplied, so figures read as on a host where one chunk
// takes kProbeNominalNs. Each report prints the factor beside the scaled
// figures.
constexpr int kProbeIterations = 2000;
constexpr double kProbeNominalNs = 6'000.0;

/// Runs one probe chunk and returns its wall time in ns.
double probe_chunk_ns();

/// Runs probe chunks back to back for `ns` and returns their host factor.
double probe_for(std::int64_t ns);

/// Host factors of consecutive segments of a run. Chunks are added as the
/// run goes; close() ends the segment at `end` (a tick or a time, rising
/// from segment to segment) and returns its factor.
class HostSpeed {
 public:
  void add(double chunk_ns) { chunks_.push_back(chunk_ns); }
  double close(std::int64_t end);
  /// Factor of the segment holding `at` (the last one past the end).
  double factor_at(std::int64_t at) const;
  const std::vector<double>& factors() const { return factors_; }

 private:
  std::vector<double> chunks_;  // of the open segment
  std::vector<std::int64_t> ends_;
  std::vector<double> factors_;
};

/// Set-up is timed kSetups times and the median reported, each time
/// divided by the host factor of the kSetupGapNs of probe chunks run just
/// before it. Constructions made back to back all see one state of the
/// host; spaced out they see many, and their median holds still from run
/// to run. The gaps are spun, not slept, so the CPUs stay awake as they do
/// while the workload runs.
constexpr int kSetups = 31;
constexpr std::int64_t kSetupGapNs = 100'000'000;

/// Pins a thread to one CPU (taken modulo the CPU count). The benchmark's
/// own thread runs on kBenchCpu and the coordinator's loop, when there is
/// one, on kCoordinatorCpu, so runs do not migrate between cores.
constexpr unsigned kBenchCpu = 2;
constexpr unsigned kCoordinatorCpu = 3;
void pin_thread(pthread_t thread, unsigned cpu);

// --- workloads ------------------------------------------------------------

Report run_fleet_quiet(const Options& options);
Report run_fleet_hotspot(const Options& options);
Report run_net_alert(const Options& options);

}  // namespace perfbench
