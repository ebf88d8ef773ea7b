#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

namespace epochbench {

int SpanRecorder::begin(const char* name, std::uint64_t id, int parent) {
  if (!enabled_) return -1;
  const double now = since_origin(Clock::now());
  spans_.push_back(Span{name, id, parent, now, now});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::end(int handle) {
  if (handle < 0) return;
  spans_[static_cast<std::size_t>(handle)].end = since_origin(Clock::now());
}

int SpanRecorder::add(const char* name, std::uint64_t id, int parent,
                      Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return -1;
  spans_.push_back(
      Span{name, id, parent, since_origin(start), since_origin(end)});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> SpanRecorder::self_seconds() const {
  // Children of one parent never overlap here (the benchmark's spans are
  // sequential calls on one thread), so covered time is their clipped sum.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end - spans_[i].start;
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const double covered =
        std::max(0.0, std::min(s.end, p.end) - std::max(s.start, p.start));
    self[static_cast<std::size_t>(s.parent)] -= covered;
  }
  return self;
}

std::map<std::string, std::vector<double>> SpanRecorder::self_seconds_by_name()
    const {
  const std::vector<double> self = self_seconds();
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name].push_back(self[i]);
  return out;
}

void SpanRecorder::write_json(const std::string& path,
                              const std::string& stamp) const {
  std::ofstream out(path);
  out.precision(9);
  out << "{\"schema\": \"epochbench-trace-v1\", \"stamp\": " << stamp
      << ",\n \"self_seconds\": {";
  bool first = true;
  for (const auto& [name, values] : self_seconds_by_name()) {
    const double total = std::accumulate(values.begin(), values.end(), 0.0);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"count\": "
        << values.size() << ", \"total\": " << total
        << ", \"median\": " << median(values) << "}";
    first = false;
  }
  out << "},\n \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"i\": " << i << ", \"name\": \""
        << s.name << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"start\": " << s.start << ", \"end\": " << s.end << "}";
  }
  out << "\n ]}\n";
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double phase_seconds(const hgr::obs::PhaseSnapshot& node,
                     std::string_view name) {
  double s = node.name == name ? node.seconds : 0.0;
  for (const hgr::obs::PhaseSnapshot& child : node.children)
    s += phase_seconds(child, name);
  return s;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double tail_quantile(std::size_t n) {
  if (n == 0) return 0.99;
  return std::clamp(1.0 - 20.0 / static_cast<double>(n), 0.5, 0.99);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

}  // namespace epochbench
