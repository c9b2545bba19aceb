#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Report::Add(std::string name, double value, std::string unit,
                 bool in_result) {
  std::printf("%-44s %14.4f %s\n", name.c_str(), value, unit.c_str());
  if (in_result) {
    result_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
}

void Report::Note(const std::string& line) {
  std::printf("# %s\n", line.c_str());
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

int Report::Finish(std::int64_t attempted, std::int64_t failed) const {
  std::string line = "{\"correct\": ";
  line += correct_ ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  if (correct_) {
    for (std::size_t i = 0; i < result_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", result_[i].value);
      if (i > 0) line += ", ";
      line += "\"" + result_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + result_[i].unit + "\"}";
    }
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

int SpanLog::Find(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

int SpanLog::Name(std::string_view name) {
  const int found = Find(name);
  if (found >= 0) return found;
  names_.emplace_back(name);
  return static_cast<int>(names_.size() - 1);
}

std::int64_t SpanLog::Add(int name, std::int64_t request, std::int64_t parent,
                          std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back(Span{name, request, parent, start_ns, end_ns});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::vector<double> SpanLog::DurationsUs(std::string_view name) const {
  const int id = Find(name);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == id) out.push_back((s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

std::vector<double> SpanLog::MinByRequestUs(std::string_view name,
                                            std::size_t n) const {
  const int id = Find(name);
  std::vector<double> out(n, 0.0);
  std::vector<bool> seen(n, false);
  for (const Span& s : spans_) {
    if (s.name != id || s.request < 0 ||
        static_cast<std::size_t>(s.request) >= n) {
      continue;
    }
    const std::size_t i = static_cast<std::size_t>(s.request);
    const double us = (s.end_ns - s.start_ns) / 1e3;
    out[i] = seen[i] ? std::min(out[i], us) : us;
    seen[i] = true;
  }
  return out;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\trequest\tparent\tstart_ns\tend_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%lld\t%lld\t%lld\t%lld\n",
                 names_[static_cast<std::size_t>(s.name)].c_str(),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
