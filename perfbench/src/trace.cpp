#include "trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <mutex>
#include <stdexcept>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_next_thread{1};
std::mutex g_mutex;
std::vector<Span> g_spans;   // guarded by g_mutex
CurrentRun g_current;        // guarded by g_mutex

std::uint64_t thread_index() {
  thread_local const std::uint64_t index =
      g_next_thread.fetch_add(1, std::memory_order_relaxed);
  return index;
}

void write_escaped(std::ofstream& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

void set_current_run(std::uint64_t run, std::uint64_t span) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_current = {run, span};
}

CurrentRun current_run() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  return g_current;
}

std::vector<Span> recorded_spans() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  return g_spans;
}

void write_chrome_json(const std::string& path) {
  const std::vector<Span> all = recorded_spans();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  SteadyClock::time_point origin = SteadyClock::time_point::max();
  for (const Span& s : all) origin = std::min(origin, s.start);
  const auto us = [&](SteadyClock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"";
    write_escaped(out, s.name);
    out << "\",\"cat\":\"";
    write_escaped(out, s.layer);
    out << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << us(s.start) << ",\"dur\":" << us(s.end) - us(s.start)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"run\":" << s.run << "}}";
  }
  out << "\n]}\n";
  out.flush();
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

ScopedSpan::ScopedSpan(std::string name, std::string layer,
                       std::uint64_t parent, std::uint64_t run) {
  span_.name = std::move(name);
  span_.layer = std::move(layer);
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = parent;
  span_.run = run;
  span_.thread = thread_index();
  span_.start = SteadyClock::now();
}

ScopedSpan::~ScopedSpan() {
  span_.end = SteadyClock::now();
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.push_back(std::move(span_));
}

}  // namespace perfbench
