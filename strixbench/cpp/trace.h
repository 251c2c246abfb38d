/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one timed call into a layer: name, start, end, the span
 * that caused it (0 = root) and the request it belongs to (0 = none).
 * Spans are recorded from the benchmark's own files around the calls
 * it makes into the library, kept in memory, and written out when the
 * run ends. Recording is off unless the run is traced, so the untraced
 * run that gives the end-to-end numbers pays one relaxed load per span.
 */

#ifndef STRIXBENCH_TRACE_H
#define STRIXBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sb {

/** Steady-clock nanoseconds since the first call in this process. */
uint64_t monoNs();

/** One finished span. `name` points at a string literal. */
struct Span
{
    const char *name = "";
    uint32_t id = 0;
    uint32_t parent = 0;
    uint64_t request = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
};

/** Process-wide span store (thread-safe). */
class Trace
{
  public:
    static void setEnabled(bool on);
    static bool enabled();
    /** A fresh span id, or 0 when tracing is off. */
    static uint32_t newId();
    /** Store a finished span; ignored when @p id is 0. */
    static void record(const char *name, uint32_t id, uint32_t parent,
                       uint64_t request, uint64_t start_ns,
                       uint64_t end_ns);
    static std::vector<Span> snapshot();
};

/** Records one span over its own lifetime. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name, uint32_t parent = 0,
                       uint64_t request = 0);
    ~SpanScope();
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    uint32_t id() const { return id_; }

  private:
    const char *name_;
    uint32_t id_;
    uint32_t parent_;
    uint64_t request_;
    uint64_t start_ns_;
};

/**
 * Self time of every span, grouped by name, in microseconds: a span's
 * duration minus the part of it that its child spans cover.
 */
std::map<std::string, std::vector<double>>
selfTimesUs(const std::vector<Span> &spans);

/** Write @p spans as JSON lines; false if the file cannot be written. */
bool writeSpans(const std::string &path, const std::vector<Span> &spans);

} // namespace sb

#endif // STRIXBENCH_TRACE_H
