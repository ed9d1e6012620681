/**
 * @file
 * In-memory span recorder for the pipeline benchmark's traced run.
 *
 * Spans are recorded only around the benchmark's own calls into the
 * library, never inside it. Each span keeps its name, start and end
 * (nanoseconds since the tracer was made), the span that caused it and
 * the id of the stage it belongs to, so every span of one stage shares
 * that id. Spans stay in memory until the run ends and write() saves
 * them once.
 *
 * A Span with a null tracer is a plain stopwatch: the untraced run
 * times the same calls through the same code without recording them.
 */

#ifndef MOCKTAILS_PERFBENCH_SPANS_HPP
#define MOCKTAILS_PERFBENCH_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One finished (or still open) span. */
struct SpanRecord
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 for a stage's root span
    std::uint64_t stage = 0;  ///< shared by every span of one stage
    std::uint64_t iteration = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = -1; ///< -1 while open
};

/** Span store for one single-threaded traced run. */
class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    /** Tag the spans opened from now on with @p iteration. */
    void setIteration(std::uint64_t iteration) { iteration_ = iteration; }

    std::uint64_t
    open(const std::string &name, std::uint64_t parent,
         std::uint64_t stage)
    {
        SpanRecord span;
        span.name = name;
        span.id = spans_.size() + 1;
        span.parent = parent;
        span.stage = stage == 0 ? span.id : stage;
        span.iteration = iteration_;
        span.startNs = nowNs();
        spans_.push_back(span);
        return span.id;
    }

    void close(std::uint64_t id) { spans_[id - 1].endNs = nowNs(); }

    const SpanRecord &span(std::uint64_t id) const
    {
        return spans_[id - 1];
    }

    /**
     * Per-iteration totals of every closed span named @p name: one
     * entry per iteration that recorded at least one such span.
     */
    std::vector<double>
    perIterationSeconds(const std::string &name) const
    {
        std::vector<double> totals;
        std::vector<bool> seen;
        for (const SpanRecord &s : spans_) {
            if (s.name != name || s.endNs < 0)
                continue;
            if (s.iteration >= totals.size()) {
                totals.resize(s.iteration + 1, 0.0);
                seen.resize(s.iteration + 1, false);
            }
            totals[s.iteration] +=
                static_cast<double>(s.endNs - s.startNs) * 1e-9;
            seen[s.iteration] = true;
        }
        std::vector<double> out;
        for (std::size_t i = 0; i < totals.size(); ++i) {
            if (seen[i])
                out.push_back(totals[i]);
        }
        return out;
    }

    /** Write every span as one JSON document. */
    bool
    write(const std::string &path, const std::string &header_json) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"run\":%s,\"spans\":[", header_json.c_str());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanRecord &s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                         "\"stage\":%llu,\"iteration\":%llu,"
                         "\"start_ns\":%lld,\"end_ns\":%lld}",
                         i == 0 ? "" : ",", s.name.c_str(),
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         static_cast<unsigned long long>(s.stage),
                         static_cast<unsigned long long>(s.iteration),
                         static_cast<long long>(s.startNs),
                         static_cast<long long>(s.endNs));
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_;
    std::uint64_t iteration_ = 0;
    std::vector<SpanRecord> spans_;
};

/**
 * Scoped timer that also records a span when a tracer is present. A
 * span without a parent opens a new stage; a child joins its parent's
 * stage.
 */
class Span
{
  public:
    Span(Tracer *tracer, const char *name, const Span *parent = nullptr)
        : tracer_(tracer), start_(Clock::now())
    {
        if (tracer_ != nullptr) {
            const std::uint64_t parent_id =
                parent != nullptr ? parent->id_ : 0;
            const std::uint64_t stage =
                parent != nullptr && parent->id_ != 0
                    ? tracer_->span(parent->id_).stage
                    : 0;
            id_ = tracer_->open(name, parent_id, stage);
        }
    }

    ~Span() { stop(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span (idempotent); @return its length in seconds. */
    double
    stop()
    {
        if (!stopped_) {
            seconds_ = secondsSince(start_);
            stopped_ = true;
            if (tracer_ != nullptr)
                tracer_->close(id_);
        }
        return seconds_;
    }

  private:
    Tracer *tracer_;
    Clock::time_point start_;
    std::uint64_t id_ = 0;
    bool stopped_ = false;
    double seconds_ = 0.0;
};

} // namespace perfbench

#endif // MOCKTAILS_PERFBENCH_SPANS_HPP
