#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock; every timestamp in the benchmark uses
/// this one clock.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Process user+sys CPU seconds (all threads: server, load generator,
/// topology tasks).
double ProcessCpuSeconds();

/// Resident set size of the process in MB, from /proc/self/status.
double RssMb();

/// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when empty.
/// Sorts a copy.
double Percentile(std::vector<double> values, double p);

/// Median of `values` (Percentile 50).
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// One named metric with its unit, as printed and as put in the result.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. Human-readable lines go to stdout as
/// they are produced; Finish() prints the single JSON result line last.
class Report {
 public:
  /// Prints `name value unit` on its own line. When `in_result` is set
  /// the metric also goes into the JSON result line.
  void Add(std::string name, double value, std::string unit,
           bool in_result = false);

  /// A text-only line (context, sample counts, bases of ratios).
  void Note(const std::string& line);

  /// Marks the run incorrect and says why on stderr; Finish then prints
  /// no numbers.
  void Fail(const std::string& why);

  bool ok() const { return correct_; }

  /// Prints the result line: {"correct", "attempted", "failed",
  /// "metrics"}. Returns the process exit code (0 only when correct).
  int Finish(std::int64_t attempted, std::int64_t failed) const;

 private:
  bool correct_ = true;
  std::vector<Metric> result_;
};

/// In-memory span log of the traced run. A span is one timed call into a
/// layer's public function: name, start, end, its parent span (or -1),
/// and the request it served. Spans are kept in memory and written out
/// once, when the run ends.
///
/// Each layer is timed in its own pass over the recorded requests, so a
/// child span does not sit inside its parent's interval: its parent is
/// the same request's span in the enclosing layer's pass. (A layer timed
/// first on a request would otherwise pay the cache misses of the layers
/// called after it.) A layer's self time on a request is its duration
/// minus its children's; passes repeat over rounds and each duration is
/// the request's shortest, which keeps preemption noise out of the
/// subtraction.
class SpanLog {
 public:
  /// Interns `name`; returns the id spans carry.
  int Name(std::string_view name);

  /// Records a finished span and returns its index (a parent handle).
  std::int64_t Add(int name, std::int64_t request, std::int64_t parent,
                   std::int64_t start_ns, std::int64_t end_ns);

  /// Durations in microseconds of every span named `name`.
  std::vector<double> DurationsUs(std::string_view name) const;

  /// Per request id in [0, n): the shortest duration in microseconds of
  /// the spans named `name` (a layer pass repeated over rounds), or 0
  /// when the request has none.
  std::vector<double> MinByRequestUs(std::string_view name,
                                     std::size_t n) const;

  std::size_t size() const { return spans_.size(); }

  /// Writes one span per line (name, request, parent, start_ns, end_ns)
  /// as tab-separated text.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    int name;
    std::int64_t request;
    std::int64_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  int Find(std::string_view name) const;

  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Times `fn` as one span of `log`, returning the span index.
template <typename Fn>
std::int64_t Timed(SpanLog& log, int name, std::int64_t request,
                   std::int64_t parent, Fn&& fn) {
  const std::int64_t start = NowNs();
  fn();
  return log.Add(name, request, parent, start, NowNs());
}

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
