// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files only: around every
// core::train() call of the traced run, around every replayed public call
// into a module, and — on in-process workloads — inside the wrapper GARs
// and attacks that the traced run registers (workloads.h). The untraced runs
// create no spans. Nothing is written until the run ends;
// write_chrome_json() then emits Chrome trace-event JSON (chrome://tracing,
// Perfetto) with each span's id, parent and run id in its args.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::string layer;          ///< module the span is charged to
  SteadyClock::time_point start;
  SteadyClock::time_point end;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t run = 0;      ///< train() run the span belongs to (0 = none)
  std::uint64_t thread = 0;   ///< small per-thread index
};

/// The train() run, and its span, that spans recorded on other threads
/// (the in-run wrappers) attach to; set around a traced train() call,
/// {0, 0} otherwise.
struct CurrentRun {
  std::uint64_t run = 0;
  std::uint64_t span = 0;
};
void set_current_run(std::uint64_t run, std::uint64_t span);
[[nodiscard]] CurrentRun current_run();

/// Linear-interpolated quantile q in [0, 1] of an unsorted sample (0 for
/// an empty one): span and per-pair statistics.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Spans recorded so far.
[[nodiscard]] std::vector<Span> recorded_spans();

/// Write every recorded span as Chrome trace-event JSON ("X" complete
/// events, microseconds from the first span). Throws on I/O failure.
void write_chrome_json(const std::string& path);

/// RAII span: records [construction, destruction).
class ScopedSpan {
 public:
  ScopedSpan(std::string name, std::string layer, std::uint64_t parent = 0,
             std::uint64_t run = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  Span span_;
};

}  // namespace perfbench
